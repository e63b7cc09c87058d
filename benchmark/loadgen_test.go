package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// stubTier answers every request after a fixed service time, one at a time,
// and stalls once: the instrument must report the service time as its p50
// and charge the stall to the requests that were due while it lasted.
type stubTier struct {
	mu      sync.Mutex
	service time.Duration
	stallAt int
	stall   time.Duration
	served  int
	timer   *preciseTimer // requests are served one at a time, so one timer does
}

func (s *stubTier) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Session string `json:"session"`
	}
	_ = json.NewDecoder(r.Body).Decode(&req)
	s.mu.Lock()
	start := time.Now()
	d := s.service
	if s.served == s.stallAt {
		d += s.stall
	}
	s.served++
	// Sleep most of the service time, spin the rest: the injected latency
	// has to be exact for the test to hold the instrument to 10%.
	err := s.timer.sleep(d - 300*time.Microsecond)
	for time.Since(start) < d {
	}
	s.mu.Unlock()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	_ = json.NewEncoder(w).Encode(readReply{Session: req.Session, Answers: []string{"Control(A, B)"}})
}

func TestOpenLoopAccounting(t *testing.T) {
	const (
		service = 5 * time.Millisecond
		stall   = 200 * time.Millisecond
		gap     = 12 * time.Millisecond
		n       = 70
	)
	timer, err := newPreciseTimer()
	if err != nil {
		t.Fatal(err)
	}
	defer timer.close()
	stub := &stubTier{stall: stall, timer: timer}
	srv := httptest.NewServer(stub)
	defer srv.Close()

	sess := []*clientSession{{in: &sessionInput{ID: "a"}}}
	client := newClient(2)
	defer client.CloseIdleConnections()
	d := newDriver(client, srv.URL, sess, nil)
	run := func(n int) []opResult {
		ops := make([]op, n)
		for i := range ops {
			ops[i] = op{at: time.Duration(i+1) * gap, class: classRead}
		}
		results, err := d.openLoop(ops, 2)
		if err != nil {
			t.Fatal(err)
		}
		d.decode(results)
		return results
	}
	// What the transport itself costs on this machine (two loopback hops
	// and four goroutine wake-ups): the same stub with nothing injected.
	stub.service, stub.stallAt = 0, -1
	var transport samples
	for _, r := range run(15) {
		transport = append(transport, r.ms)
	}
	stub.service, stub.stallAt, stub.served = service, 30, 0
	results := run(n)

	var lat, late samples
	behind := 0
	for _, r := range results {
		if r.err != "" {
			t.Fatalf("request failed: %s", r.err)
		}
		lat = append(lat, r.ms)
		late = append(late, r.lateMs)
		if r.ms > 50 {
			behind++
		}
	}
	t.Logf("p50 %.3f ms (transport alone %.3f ms), %d requests behind the stall, lateness p99 %.3f ms", lat.p50(), transport.p50(), behind, late.quantile(0.99))
	if net := lat.p50() - transport.p50(); net < 4.5 || net > 5.5 {
		t.Errorf("p50 net of transport = %.3f ms, want within 10%% of the injected 5 ms", net)
	}
	// Requests are due every 12 ms, so about 150/12 = 12 of them fall due
	// during the part of the stall that leaves them over 50 ms late; a
	// closed loop, timing from the actual send, would have shown one or two.
	if behind < 10 {
		t.Errorf("%d requests carry the stall, want at least 10", behind)
	}
	if max := lat.quantile(1); max < 200 {
		t.Errorf("slowest request %.1f ms, want the whole 200 ms stall", max)
	}
	// The tail of the lateness is the machine's (one hiccup of the host is
	// the p99 of 70 samples); the median is the generator's own.
	if p50, p99 := late.p50(), late.quantile(0.99); p99 <= 0 || p50 > 1 {
		t.Errorf("generator lateness p50 %.3f ms, p99 %.3f ms, want reported and small", p50, p99)
	}
}

func TestWritesAlternateInTicketOrder(t *testing.T) {
	var mu sync.Mutex
	var seen []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req map[string]string
		_ = json.NewDecoder(r.Body).Decode(&req)
		mu.Lock()
		if _, ok := req["add"]; ok {
			seen = append(seen, "add")
		} else {
			seen = append(seen, "retract")
		}
		epoch := uint64(len(seen))
		mu.Unlock()
		_ = json.NewEncoder(w).Encode(readReply{Session: req["session"], Epoch: epoch})
	}))
	defer srv.Close()
	sess := []*clientSession{{in: &sessionInput{ID: "a", WriteFact: `Own("x", "y", 0.6).`}}}
	client := newClient(4)
	defer client.CloseIdleConnections()
	d := newDriver(client, srv.URL, sess, nil)
	i := 0
	results, _ := d.closedLoop(func() op {
		o := op{class: classWrite, ticket: i}
		i++
		return o
	}, 4, 100*time.Millisecond)
	d.decode(results)
	if len(seen) < 8 {
		t.Fatalf("only %d writes in 100 ms", len(seen))
	}
	for k, dir := range seen {
		if want := [2]string{"add", "retract"}[k%2]; dir != want {
			t.Fatalf("write %d was a %s, want %s: %v", k, dir, want, seen)
		}
	}
	if s := sess[0]; s.acked != len(seen) || s.lastEpoch != uint64(len(seen)) || s.present != (len(seen)%2 == 1) {
		t.Fatalf("session state %+v after %d writes", s, len(seen))
	}
}
