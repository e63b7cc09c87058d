package lru

import (
	"fmt"
	"sync"
	"testing"
)

func TestPutGetEviction(t *testing.T) {
	c := New[string, int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %d, %v", v, ok)
	}
	// "b" is now least recently used; inserting "c" evicts it.
	c.Put("c", 3)
	if _, ok := c.Get("b"); ok {
		t.Error("b survived eviction")
	}
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Errorf("a lost: %d, %v", v, ok)
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d", c.Len())
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Cap != 2 || st.Len != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestPutReplaces(t *testing.T) {
	c := New[string, int](2)
	c.Put("a", 1)
	c.Put("a", 9)
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}
	if v, _ := c.Get("a"); v != 9 {
		t.Errorf("a = %d", v)
	}
	if st := c.Stats(); st.Evictions != 0 {
		t.Errorf("evictions = %d", st.Evictions)
	}
}

func TestRemove(t *testing.T) {
	c := New[string, int](2)
	c.Put("a", 1)
	if !c.Remove("a") || c.Remove("a") {
		t.Error("Remove accounting wrong")
	}
	if _, ok := c.Get("a"); ok {
		t.Error("a survived Remove")
	}
	if st := c.Stats(); st.Evictions != 0 {
		t.Errorf("Remove counted as eviction: %+v", st)
	}
}

func TestMinimumCapacity(t *testing.T) {
	c := New[int, int](0)
	c.Put(1, 1)
	c.Put(2, 2)
	if c.Len() != 1 || c.Cap() != 1 {
		t.Errorf("Len = %d, Cap = %d", c.Len(), c.Cap())
	}
}

func TestHitMissCounting(t *testing.T) {
	c := New[int, int](4)
	c.Put(1, 1)
	c.Get(1)
	c.Get(2)
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestRemoveFunc: the predicate sweep removes matching entries in one
// pass without touching hit/miss/eviction accounting.
func TestRemoveFunc(t *testing.T) {
	c := New[string, string](8)
	c.Put("s1", "w1")
	c.Put("s2", "w2")
	c.Put("s3", "w1")
	c.Put("s4", "w2")
	before := c.Stats()

	if n := c.RemoveFunc(func(_, loc string) bool { return loc == "w1" }); n != 2 {
		t.Fatalf("RemoveFunc removed %d, want 2", n)
	}
	after := c.Stats()
	if after.Hits != before.Hits || after.Misses != before.Misses || after.Evictions != before.Evictions {
		t.Errorf("RemoveFunc perturbed accounting: before %+v after %+v", before, after)
	}
	if after.Len != 2 {
		t.Errorf("Len = %d, want 2", after.Len)
	}
	for _, k := range []string{"s1", "s3"} {
		if _, ok := c.Get(k); ok {
			t.Errorf("%s survived the sweep", k)
		}
	}
	for _, k := range []string{"s2", "s4"} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("%s was swept but points at w2", k)
		}
	}
	if n := c.RemoveFunc(func(string, string) bool { return false }); n != 0 {
		t.Errorf("no-match sweep removed %d", n)
	}
}

// TestConcurrent hammers one cache from many goroutines; correctness here
// is "no race, no panic, capacity respected" (run under -race).
func TestConcurrent(t *testing.T) {
	c := New[string, int](8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("k%d", (g+i)%16)
				if _, ok := c.Get(k); !ok {
					c.Put(k, i)
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 8 {
		t.Errorf("Len = %d exceeds capacity", c.Len())
	}
}
