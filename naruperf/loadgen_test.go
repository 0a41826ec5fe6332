package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// A server stall must show in the latency of every request queued behind it:
// the open loop times each request from its due time, not from when the
// busy connection finally sent it.
func TestOpenLoopTimesQueuedRequestsFromDueTime(t *testing.T) {
	const stall = 300 * time.Millisecond
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()
	hc := srv.Client()
	due := []time.Duration{0, 50 * time.Millisecond, 100 * time.Millisecond, 150 * time.Millisecond, 400 * time.Millisecond}
	res := openLoop(1, due, func(w, i int) error {
		resp, err := hc.Get(srv.URL)
		if err != nil {
			return err
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		return resp.Body.Close()
	})
	for i, r := range res {
		if r.err != nil {
			t.Fatalf("request %d: %v", i, r.err)
		}
	}
	if res[0].latency < stall {
		t.Fatalf("stalled request latency %v, want at least %v", res[0].latency, stall)
	}
	// Requests 1-3 were due during the stall: each waited for it, and its
	// latency counts that wait from its own due time.
	for i := 1; i <= 3; i++ {
		waited := stall - due[i]
		if res[i].late < waited-10*time.Millisecond {
			t.Errorf("request %d sent %v late, want about %v", i, res[i].late, waited)
		}
		if res[i].latency < waited {
			t.Errorf("request %d latency %v, want at least the %v it waited behind the stall", i, res[i].latency, waited)
		}
	}
	// The last request was due after the stall cleared: sent on time.
	if res[4].late > 50*time.Millisecond || res[4].latency > 100*time.Millisecond {
		t.Errorf("request after the stall: late %v, latency %v; want both small", res[4].late, res[4].latency)
	}
	st, lat := summarise("open", res)
	if st.Attempted != 5 || st.Succeeded != 5 || st.LateMaxMs < ms(stall-due[1])-10 {
		t.Errorf("summary %+v does not report the generator running late", st)
	}
	if quantile(lat, 0.5) < ms(stall-due[2]) {
		t.Errorf("median latency %.1fms hides the stall", quantile(lat, 0.5))
	}
}

// Failed operations count as failed and with a latency that misses any limit.
func TestSummariseCountsFailuresAsMisses(t *testing.T) {
	rs := []opResult{{latency: time.Millisecond}, {latency: time.Millisecond, err: io.EOF}}
	st, lat := summarise("p", rs)
	if st.Failed != 1 || st.Succeeded != 1 || lat[1] != ms(failedLatency) {
		t.Fatalf("got %+v %v", st, lat)
	}
}
