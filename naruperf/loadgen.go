package main

// Load generation over loopback HTTP. The open loop sends on a fixed
// schedule whatever the server does; each request is timed from the moment
// it was due, so a stall that delays later requests shows in their latency,
// and the report states how late the generator itself ran. The closed loop
// keeps every connection busy back to back and measures throughput.

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// opResult is one operation as the load generator saw it.
type opResult struct {
	due     time.Duration // scheduled send time from the phase start
	late    time.Duration // actual send time minus due time
	latency time.Duration // completion minus due time (open loop) or send time (closed loop)
	err     error         // nil when the answer passed every check
}

// poissonSchedule returns the due times of a Poisson arrival process at rate
// per second over the given span.
func poissonSchedule(rng *rand.Rand, rate float64, span time.Duration) []time.Duration {
	var due []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= span {
			return due
		}
		due = append(due, d)
	}
}

// openLoop runs do(i) for every due time, on at most conns concurrent
// workers, each owning one connection. A worker takes the next request in
// schedule order, waits until it is due and sends it; when every worker is
// busy at a due time the request is sent late and its latency still counts
// from the due time.
func openLoop(conns int, due []time.Duration, do func(worker, i int) error) []opResult {
	out := make([]opResult, len(due))
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				if wait := time.Until(start.Add(due[i])); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Since(start)
				err := do(w, i)
				done := time.Since(start)
				out[i] = opResult{due: due[i], late: sent - due[i], latency: done - due[i], err: err}
			}
		}(w)
	}
	wg.Wait()
	return out
}

// closedLoop keeps conns workers sending back to back for span and returns
// every operation started in that time. do receives a sequence number, so
// callers can walk a query list without repeats.
func closedLoop(conns int, span time.Duration, do func(worker, i int) error) []opResult {
	var mu sync.Mutex
	var out []opResult
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Since(start) < span {
				i := int(next.Add(1) - 1)
				t0 := time.Since(start)
				err := do(w, i)
				r := opResult{due: t0, latency: time.Since(start) - t0, err: err}
				mu.Lock()
				out = append(out, r)
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	return out
}

// inParallel calls fn(w, i) for i in [0, n) from conns workers w, each
// taking the next index as soon as its last call returned: the closed loop
// of conns clients over a fixed list.
func inParallel(n int, fn func(w, i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(w, i)
			}
		}(w)
	}
	wg.Wait()
}

// window is the throughput sampling interval of closed-loop phases.
const window = 500 * time.Millisecond

// windows returns, for each whole window of a closed-loop phase, the rate
// per second of the operations that completed in it and passed. Throughput
// is reported as the median over windows, so a brief stall of the machine
// moves one window, not the figure.
func windows(rs []opResult, span time.Duration) []float64 {
	per := make([]float64, int(span/window))
	for _, r := range rs {
		if k := int((r.due + r.latency) / window); r.err == nil && k < len(per) {
			per[k] += float64(time.Second / window)
		}
	}
	return per
}

// phaseStats summarises one phase for the report.
type phaseStats struct {
	Name                         string
	Attempted, Succeeded, Failed int
	LateP50Ms, LateMaxMs         float64
	FirstErr                     string
}

// failedLatency is the latency a failed operation counts with: it misses
// any latency limit the report could apply.
const failedLatency = time.Hour

func summarise(name string, rs []opResult) (phaseStats, []float64) {
	st := phaseStats{Name: name, Attempted: len(rs)}
	lat := make([]float64, 0, len(rs))
	late := make([]float64, 0, len(rs))
	for _, r := range rs {
		l := r.latency
		if r.err != nil {
			st.Failed++
			if st.FirstErr == "" {
				st.FirstErr = r.err.Error()
			}
			l = failedLatency
		} else {
			st.Succeeded++
		}
		lat = append(lat, ms(l))
		late = append(late, ms(r.late))
	}
	st.LateP50Ms = quantile(late, 0.5)
	sort.Float64s(late)
	if len(late) > 0 {
		st.LateMaxMs = late[len(late)-1]
	}
	return st, lat
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile is the linear-interpolation quantile of xs (NaN when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
