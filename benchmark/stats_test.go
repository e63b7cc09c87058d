package main

import (
	"encoding/json"
	"errors"
	"math"
	"testing"
)

func TestP99RefusesSmallSamples(t *testing.T) {
	s := make(samples, minTailSamples-1)
	if _, err := s.p99(); !errors.Is(err, errTooFewSamples) {
		t.Fatalf("p99 over %d samples: got %v, want errTooFewSamples", len(s), err)
	}
	s = append(s, 1)
	for i := range s {
		s[i] = float64(i)
	}
	got, err := s.p99()
	if err != nil {
		t.Fatal(err)
	}
	if want := 989.0; got != want {
		t.Fatalf("p99 of 0..999 = %v, want %v", got, want)
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	v := []float64{7, 1, 9, 3, 5, 2, 10, 4, 8, 6}
	if got, want := spread(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Fatalf("spread = %v, want %v", got, want)
	}
}

func TestLookupIsLenient(t *testing.T) {
	var doc any
	if err := json.Unmarshal([]byte(`{"writePath":{"restores":7,"wal":"renamed"}}`), &doc); err != nil {
		t.Fatal(err)
	}
	if v, ok := lookup(doc, "writePath", "restores"); !ok || v != 7 {
		t.Fatalf("restores = %v, %v", v, ok)
	}
	for _, path := range [][]string{{"writePath", "gone"}, {"writePath", "wal"}, {"writePath", "restores", "deeper"}, {"nowhere"}} {
		if _, ok := lookup(doc, path...); ok {
			t.Errorf("lookup%v found a number", path)
		}
	}
}
