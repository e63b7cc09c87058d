package server

// Request-lifecycle tests: bounded bodies (413), strict decoding (400),
// per-request deadlines (408), admission control (503), session mutation
// backpressure (429), panic containment (500), fact-limit overruns (422,
// never 500), drain gating, slowloris transport timeouts, and the overload
// smoke test with goroutine leak checking.

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/leakcheck"
)

func newTestServerFull(t *testing.T, opts Options) (*httptest.Server, *Server) {
	t.Helper()
	s, err := NewWithOptions(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts, s
}

func TestRequestBodyTooLarge(t *testing.T) {
	ts := newTestServer(t)
	big := `{"app":"company-control","facts":"` + strings.Repeat("x", maxRequestBody+1) + `"}`
	for _, path := range []string{"/reason", "/facts"} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(big))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s oversize body: status = %d, want 413", path, resp.StatusCode)
		}
	}
}

func TestUnknownFieldRejected(t *testing.T) {
	ts := newTestServer(t)
	cases := []struct{ path, body string }{
		{"/reason", `{"app":"company-control","bogusField":1}`},
		{"/facts", `{"session":"s1","bogusField":1}`},
	}
	for _, c := range cases {
		body, code := postBody(t, ts.URL+c.path, c.body)
		if code != http.StatusBadRequest {
			t.Errorf("%s unknown field: status = %d, want 400", c.path, code)
		}
		if !strings.Contains(string(body), "bogusField") {
			t.Errorf("%s error does not name the offending field: %s", c.path, body)
		}
	}
}

// postBody posts a JSON body and returns the raw response and status.
func postBody(t *testing.T, url, body string) ([]byte, int) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), resp.StatusCode
}

func TestRequestTimeout408(t *testing.T) {
	// A 1ns deadline is expired by the time the chase makes its first
	// cancellation check, so every reasoning request answers 408 without
	// any race on wall time.
	ts, s := newTestServerFull(t, Options{RequestTimeout: time.Nanosecond})
	body, code := postBody(t, ts.URL+"/reason", `{"app":"stress-simple","scenario":true}`)
	if code != http.StatusRequestTimeout {
		t.Fatalf("status = %d, want 408 (body %s)", code, body)
	}
	if got := s.timeouts.Load(); got != 1 {
		t.Errorf("timeout counter = %d, want 1", got)
	}
	var st statsResponse
	getJSON(t, ts.URL+"/stats", &st)
	if st.Requests.Timeouts != 1 {
		t.Errorf("/stats timeouts = %d, want 1", st.Requests.Timeouts)
	}
}

func TestMaxInflight503(t *testing.T) {
	ts, s := newTestServerFull(t, Options{MaxInflight: 1})
	occupied := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.testHookInflight = func() {
		once.Do(func() {
			close(occupied)
			<-release
		})
	}
	firstDone := make(chan int, 1)
	go func() {
		_, code := postBody(t, ts.URL+"/reason", `{"app":"stress-simple","scenario":true}`)
		firstDone <- code
	}()
	<-occupied // the only slot is now held
	resp, err := http.Post(ts.URL+"/reason", "application/json",
		strings.NewReader(`{"app":"stress-simple","scenario":true}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("saturated: status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Errorf("503 without Retry-After")
	}
	// Unguarded endpoints stay reachable while reasoning is saturated.
	if _, code := getBody(t, ts.URL+"/stats"); code != http.StatusOK {
		t.Errorf("/stats under saturation: status = %d", code)
	}
	close(release)
	if code := <-firstDone; code != http.StatusOK {
		t.Errorf("admitted request: status = %d", code)
	}
	if got := s.rejected.Load(); got != 1 {
		t.Errorf("rejected counter = %d, want 1", got)
	}
}

func TestPanicRecovery(t *testing.T) {
	var buf syncBuffer
	s, err := NewWithOptions(Options{Log: log.New(&buf, "", 0)})
	if err != nil {
		t.Fatal(err)
	}
	h := s.protect(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("kaboom")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/explain", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("status = %d, want 500", rec.Code)
	}
	if got := s.panics.Load(); got != 1 {
		t.Errorf("panic counter = %d, want 1", got)
	}
	if !strings.Contains(buf.String(), "kaboom") {
		t.Errorf("panic not logged: %q", buf.String())
	}
	// A second request is served normally: the panic was contained.
	rec2 := httptest.NewRecorder()
	s.protect(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})).ServeHTTP(rec2, httptest.NewRequest("GET", "/apps", nil))
	if rec2.Code != http.StatusOK {
		t.Errorf("after panic: status = %d", rec2.Code)
	}
}

type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestSessionBusy429 exercises queue-full backpressure: with the commit
// leader pinned mid-apply and the session's write queue (capacity 1) full,
// one more write answers 429 — the only 429 the write path produces.
// Contention below that coalesces into batches instead of bouncing.
func TestSessionBusy429(t *testing.T) {
	ts, s := newTestServerFull(t, Options{WriteQueue: 1})
	var rr reasonResponse
	postJSON(t, ts.URL+"/reason", `{"app":"company-control","facts":"Own(\"X\",\"Y\",0.6)."}`, &rr)
	sess := s.resident(rr.Session)
	if sess == nil {
		t.Fatal("session not found")
	}
	applying := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.testHookApply = func() {
		once.Do(func() {
			close(applying)
			<-release
		})
	}
	codes := make(chan int, 2)
	go func() {
		_, code := postBody(t, ts.URL+"/facts",
			`{"session":"`+rr.Session+`","add":"Own(\"Y\",\"Z\",0.7)."}`)
		codes <- code
	}()
	<-applying // the leader is now pinned applying the first write
	go func() {
		_, code := postBody(t, ts.URL+"/facts",
			`{"session":"`+rr.Session+`","add":"Own(\"Z\",\"W\",0.8)."}`)
		codes <- code
	}()
	waitFor(t, func() bool { return sess.cmt.Pending() == 1 }) // queue full
	resp, err := http.Post(ts.URL+"/facts", "application/json",
		strings.NewReader(`{"session":"`+rr.Session+`","add":"Own(\"W\",\"V\",0.9)."}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full write queue: status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Errorf("429 without Retry-After")
	}
	// Reads never join the write queue: the last published fixpoint keeps
	// serving explanations while the commit is in flight.
	if _, code := getBody(t, ts.URL+"/explain?session="+rr.Session+`&query=Control(%22X%22,%22Y%22)`); code != http.StatusOK {
		t.Errorf("explain during commit: status = %d", code)
	}
	close(release)
	for i := 0; i < 2; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Errorf("queued write: status = %d, want 200", code)
		}
	}
	if got := s.sessionBusy.Load(); got != 1 {
		t.Errorf("sessionBusy counter = %d, want 1", got)
	}
}

// waitFor polls until cond holds; every condition used with it is monotone.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 10s")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFactLimit422 drives a session into Options.MaxFacts through POST
// /facts. The failed repair must never surface as a 500: the update answers
// 422, and from then on the session is either still consistent or cleanly
// poisoned — every later interaction is a well-formed 4xx and the last
// consistent fixpoint keeps serving explanations.
func TestFactLimit422(t *testing.T) {
	ts := newTestServerFull1(t, Options{MaxFacts: 40})
	var rr reasonResponse
	resp := postJSON(t, ts.URL+"/reason",
		`{"app":"company-control","facts":"Own(\"X\",\"Y\",0.6).\nOwn(\"Y\",\"Z\",0.7)."}`, &rr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("initial reason under limit: status = %d", resp.StatusCode)
	}
	explainURL := ts.URL + "/explain?session=" + rr.Session + `&query=Control(%22X%22,%22Z%22)`
	if _, code := getBody(t, explainURL); code != http.StatusOK {
		t.Fatalf("initial explain: status = %d", code)
	}

	// A long high-share chain explodes the transitive closure past the cap.
	var adds []string
	for i := 0; i < 24; i++ {
		adds = append(adds, fmt.Sprintf(`Own(\"N%d\",\"N%d\",0.9).`, i, i+1))
	}
	body, code := postBody(t, ts.URL+"/facts",
		`{"session":"`+rr.Session+`","add":"`+strings.Join(adds, `\n`)+`"}`)
	if code == http.StatusInternalServerError {
		t.Fatalf("fact-limit overrun surfaced as 500: %s", body)
	}
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("fact-limit overrun: status = %d, want 422 (body %s)", code, body)
	}
	if !strings.Contains(string(body), "fact limit") {
		t.Errorf("error does not mention the fact limit: %s", body)
	}

	// The session is cleanly poisoned or untouched — never half-mutated:
	// further mutations answer 422 (not 500), and the pre-failure fixpoint
	// still serves explanations.
	body, code = postBody(t, ts.URL+"/facts",
		`{"session":"`+rr.Session+`","add":"Own(\"Q\",\"R\",0.6)."}`)
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("mutation after overrun: status = %d, want 422 (body %s)", code, body)
	}
	if _, code := getBody(t, explainURL); code != http.StatusOK {
		t.Errorf("explain after overrun: status = %d, want 200 (last consistent fixpoint)", code)
	}
}

// newTestServerFull1 is newTestServerFull without the *Server (keeps the
// call sites that only need the URL tidy).
func newTestServerFull1(t *testing.T, opts Options) *httptest.Server {
	ts, _ := newTestServerFull(t, opts)
	return ts
}

func TestDrainingRejectsNewWork(t *testing.T) {
	ts, s := newTestServerFull(t, Options{})
	s.SetDraining(true)
	if _, code := postBody(t, ts.URL+"/reason", `{"app":"stress-simple","scenario":true}`); code != http.StatusServiceUnavailable {
		t.Errorf("draining /reason: status = %d, want 503", code)
	}
	if _, code := getBody(t, ts.URL+"/apps"); code != http.StatusServiceUnavailable {
		t.Errorf("draining /apps: status = %d, want 503", code)
	}
	var st statsResponse
	resp := getJSON(t, ts.URL+"/stats", &st)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("draining /stats: status = %d, want 200 (observability stays up)", resp.StatusCode)
	}
	if !st.Requests.Draining {
		t.Errorf("/stats does not report draining")
	}
	s.SetDraining(false)
	if _, code := postBody(t, ts.URL+"/reason", `{"app":"stress-simple","scenario":true}`); code != http.StatusOK {
		t.Errorf("after drain cleared: status = %d", code)
	}
}

// TestSlowClientDisconnected is the slowloris regression: a client that
// trickles its request headers is cut off by ReadHeaderTimeout instead of
// holding a connection goroutine forever.
func TestSlowClientDisconnected(t *testing.T) {
	defer leakcheck.Check(t)()
	s, err := NewWithOptions(Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewHTTPServer("", s.Handler(), HTTPTimeouts{ReadHeader: 100 * time.Millisecond})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Send a partial request line and then stall, like a slowloris client.
	if _, err := conn.Write([]byte("GET /apps HTTP/1.1\r\nHost: local")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	start := time.Now()
	buf := make([]byte, 1)
	_, rerr := conn.Read(buf)
	if rerr == nil {
		t.Fatalf("slow client was answered instead of disconnected")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("slow client held the connection for %s, want < ReadHeaderTimeout-ish", elapsed)
	}
}

// TestOverloadBackpressure is the CI overload smoke test: under
// MaxInflight=1 with the only slot pinned, a burst of requests all answer
// 503 immediately, the admitted request completes, and no goroutine leaks.
func TestOverloadBackpressure(t *testing.T) {
	check := leakcheck.Check(t)
	s, err := NewWithOptions(Options{MaxInflight: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	occupied := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.testHookInflight = func() {
		once.Do(func() {
			close(occupied)
			<-release
		})
	}
	firstDone := make(chan int, 1)
	go func() {
		_, code := postBody(t, ts.URL+"/reason", `{"app":"stress-simple","scenario":true}`)
		firstDone <- code
	}()
	<-occupied

	const burst = 8
	var wg sync.WaitGroup
	codes := make(chan int, burst)
	start := time.Now()
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/reason", "application/json",
				strings.NewReader(`{"app":"stress-simple","scenario":true}`))
			if err != nil {
				codes <- -1
				return
			}
			resp.Body.Close()
			codes <- resp.StatusCode
		}()
	}
	wg.Wait()
	// Fail-fast: the whole burst was rejected while the slot was held, so
	// no request waited for the slow leader (queue growth would show up as
	// burst duration approaching the leader's runtime).
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("burst took %s — requests queued instead of failing fast", elapsed)
	}
	close(codes)
	for code := range codes {
		if code != http.StatusServiceUnavailable {
			t.Errorf("burst request: status = %d, want 503", code)
		}
	}
	close(release)
	if code := <-firstDone; code != http.StatusOK {
		t.Errorf("admitted request: status = %d", code)
	}
	var st statsResponse
	getJSON(t, ts.URL+"/stats", &st)
	if st.Requests.Rejected < burst {
		t.Errorf("rejected counter = %d, want >= %d", st.Requests.Rejected, burst)
	}
	if st.Requests.Inflight != 0 {
		t.Errorf("inflight = %d after drain, want 0", st.Requests.Inflight)
	}
	// Tear down the server and the client's keep-alive connections before
	// the leak check: idle transport goroutines are not leaks.
	http.DefaultClient.CloseIdleConnections()
	ts.Close()
	check()
}

// TestConcurrentCancelAndReason (run under -race) mixes clients that cancel
// mid-request with clients that run to completion: the server must keep
// serving correct responses, and abandoned runs must not corrupt the
// pipeline caches.
func TestConcurrentCancelAndReason(t *testing.T) {
	ts := newTestServer(t)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), time.Duration(i)*time.Millisecond)
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/reason",
				strings.NewReader(`{"app":"stress-test","scenario":true}`))
			if err != nil {
				t.Error(err)
				return
			}
			req.Header.Set("Content-Type", "application/json")
			resp, err := http.DefaultClient.Do(req)
			if err == nil {
				resp.Body.Close() // fast machine: the request simply won
			}
		}(i)
	}
	// Interleaved full-speed requests must succeed throughout.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var rr reasonResponse
			resp := postJSON(t, ts.URL+"/reason", `{"app":"stress-test","scenario":true}`, &rr)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("concurrent reason: status = %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	// The dust settled: a fresh request still reasons correctly.
	var rr reasonResponse
	if resp := postJSON(t, ts.URL+"/reason", `{"app":"stress-test","scenario":true}`, &rr); resp.StatusCode != http.StatusOK {
		t.Fatalf("final reason: status = %d", resp.StatusCode)
	}
	if len(rr.Answers) == 0 {
		t.Error("final reason returned no answers")
	}
}
