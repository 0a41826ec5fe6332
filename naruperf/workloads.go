package main

// The two workloads, each run end to end against a live server process:
// generate the data from the seed, train with `naru train`, start the
// server, drive it over loopback HTTP and check every answer.
//
// Each run starts the server setupRepeats times and measures each process
// in turn; a metric is the median of its observations over the processes
// (over windows and hot-swaps, for throughput and refresh time), except
// p50_ms, which is the lowest of the processes' open-loop medians.

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"
)

// Inputs and offered load. These are constants of each workload so that a
// parent commit and a change are measured under the same load.
const (
	conns   = 2    // load-generator connections: the machine's 2 cores
	samples = 1000 // progressive samples per estimate (S)

	dmvRows   = 20000
	dmvHidden = "64,64"
	dmvEpochs = 2
	dmvBatch  = 512
	// dmvOpenRate and joinOpenRate are the rates offered in the open-loop
	// phase, about an eighth of saturation. At a quarter, queueing behind
	// the previous request added about 15% to p50, and more when the shared
	// machine ran slow, so p50 moved more than the machine's speed did.
	dmvOpenRate = 10.0
	openShare   = 0.7 // share of each server's time in the open loop; the rest saturates

	joinCustomers = 2000
	joinHidden    = "64,64"
	joinEpochs    = 4
	joinBatch     = 256
	joinOpenRate  = 65.0

	// The ingest tail of the two serving workloads, on each server: append
	// batches until the refresh budget is crossed and wait for the hot-swap.
	// DMV batches hold rows already in the base table's domains, so a
	// refresh is a warm fine-tune, not a rebuild.
	tailCycles   = 1    // DMV cycles per server
	joinCycles   = 3    // join cycles per server: one append each
	tailBatches  = 10   // DMV batches per cycle
	tailRows     = 40   // rows per DMV batch; the refresh budget is tailBatches*tailRows
	joinTailRows = 1000 // item rows per join append
	// joinRefreshFraction is the join's refresh budget: growth of a table
	// by this share makes the model stale. One append of joinTailRows to
	// the roughly 30,000 items grows them by about 3%, which crosses it.
	joinRefreshFraction = 0.02
	refreshEpoch        = 1

	setupRepeats = 3  // set-ups (server processes) per run
	warmup       = 10 // untimed queries before each server is measured

	// scheduleSeed fixes the open-loop arrival times. The offered load is a
	// constant of the workload, like its rate; --seed varies the data and the
	// queries.
	scheduleSeed = 42

	dmvEstimatePath = "/estimate"
	dmvAppendPath   = "/append"
	joinEstimate    = "/v1/" + joinTenantName + "/estimate"
	joinAppendItems = "/v1/" + joinTenantName + "/append?table=items"
	joinModels      = "/v1/" + joinTenantName + "/models"
)

// latencyLimitMs is the open-loop p95 latency the report holds each run to.
const latencyLimitMs = 100.0

// Accuracy gates: a trained model meets them, an untrained one does not.
// The join's scaled walk is close to exact even on an untrained model, so
// its gates are tight (README.md gives both models' figures).
const (
	dmvGateP50  = 3.0
	dmvGateP95  = 30.0
	joinGateP50 = 1.06
	joinGateP95 = 1.4
)

// run carries one benchmark run's inputs, findings and metrics.
type run struct {
	dir     string
	seed    int64
	span    time.Duration
	naru    string // the program's CLI binary
	self    string // this benchmark's binary (for serve-join)
	phases  []string
	ops     map[string][]opResult // by phase, over all server processes
	obs     map[string][]float64  // end-to-end metric observations; the metric is their median
	latency []float64             // open-loop latencies (ms) over all server processes
	openP50 []float64             // each server process's open-loop median latency (ms)
	metrics map[string]float64
	faults  []string // failed output checks
	next    int      // next pool index of the warm-up and open-loop phases
	satNext int      // next pool index of the saturation phases
}

func (r *run) fail(format string, a ...any) { r.faults = append(r.faults, fmt.Sprintf(format, a...)) }

// record adds operations to a phase and returns their latencies in ms.
func (r *run) record(phase string, rs []opResult) []float64 {
	if _, ok := r.ops[phase]; !ok {
		r.phases = append(r.phases, phase)
	}
	r.ops[phase] = append(r.ops[phase], rs...)
	_, lat := summarise(phase, rs)
	return lat
}

func (r *run) note(metric string, vs ...float64) { r.obs[metric] = append(r.obs[metric], vs...) }

func (r *run) path(name string) string { return filepath.Join(r.dir, name) }

// servers runs the set-up setupRepeats times, each time measuring the fresh
// server with measure before stopping it: setup_s is the time of train +
// start until /readyz answers 200. Timing metrics are medians over the
// processes, except p50_ms, the lowest of their open-loop medians: a
// shared machine can run the open loop's light load up to half again as
// slow for ten seconds and more at a time, which moves the median of whole
// processes but makes none of them faster. Training is deterministic, so
// every set-up must write the same model bytes.
func (r *run) servers(train func(model string) error, start func(i int, model string) (*child, error),
	measure func(i int, c *client) error) error {
	var first []byte
	for i := 0; i < setupRepeats; i++ {
		model := r.path(fmt.Sprintf("model-%d.naru", i))
		t0 := time.Now()
		if err := train(model); err != nil {
			return err
		}
		srv, err := start(i, model)
		if err != nil {
			return err
		}
		r.note("setup_s", time.Since(t0).Seconds())
		b, err := os.ReadFile(model)
		if err != nil {
			srv.stop()
			return err
		}
		if first == nil {
			first = b
			r.note("model_bytes", float64(len(b)))
		} else if !bytes.Equal(first, b) {
			r.fail("training is not deterministic: set-up %d wrote a different model", i)
		}
		c := newClient(srv.base, conns)
		err = measure(i, c)
		c.close()
		if mb, rerr := srv.peakRSSMB(); rerr == nil {
			r.note("rss_mb", mb)
		} else {
			r.fail("reading server memory: %v", rerr)
		}
		srv.stop()
		if err != nil {
			return err
		}
	}
	best := math.Inf(1)
	for _, v := range r.openP50 {
		best = math.Min(best, v)
	}
	r.note("p50_ms", best)
	p95 := quantile(r.latency, 0.95)
	fmt.Printf("open-loop latency over %d requests: p50 %.1f p90 %.1f p95 %.1f ms; p95 within the %.0f ms limit: %v\n",
		len(r.latency), quantile(r.latency, 0.5), quantile(r.latency, 0.9), p95, latencyLimitMs, p95 <= latencyLimitMs)
	return nil
}

// serveShare is the part of the measured time each server process gets.
func (r *run) serveShare() time.Duration { return r.span / setupRepeats }

// openSpan is the part of each server's time spent in the open loop.
func (r *run) openSpan() time.Duration { return time.Duration(float64(r.serveShare()) * openShare) }

// openSchedule returns server k's open-loop due times.
func (r *run) openSchedule(rate float64, k int) []time.Duration {
	return poissonSchedule(rand.New(rand.NewSource(scheduleSeed+int64(k))), rate, r.openSpan())
}

// firstQuery lays out the pool: the warm-up and open-loop phases of every
// server ask the queries from index first on, in order, and the saturation
// phases ask the ones after all of them. So the open loop asks the same
// queries for a seed however many the saturation phases before it answered.
func (r *run) firstQuery(rate float64, first int) {
	r.next = first
	r.satNext = first
	for k := 0; k < setupRepeats; k++ {
		r.satNext += warmup + len(r.openSchedule(rate, k))
	}
}

// openAndSaturate warms the server up, then runs an open-loop phase and a
// closed-loop saturation phase. ask(w, i) asks query i of the workload's
// pool; answers collects every checked answer by query index.
func (r *run) openAndSaturate(rate float64, k int, answers map[int]answer, ask func(w, i int) (answer, error)) {
	var mu sync.Mutex
	record := func(w, i int) error {
		a, err := ask(w, i)
		if err == nil {
			mu.Lock()
			answers[i] = a
			mu.Unlock()
		}
		return err
	}
	// Warm-up: the server's first answers fill its pools and caches.
	base := r.next
	warm := make([]opResult, warmup)
	inParallel(warmup, func(w, i int) { warm[i].err = record(w, base+i) })
	r.record("warm-up", warm)
	r.next += warmup

	due := r.openSchedule(rate, k)
	base = r.next
	lat := r.record("open", openLoop(conns, due, func(w, i int) error { return record(w, base+i) }))
	r.next += len(due)
	r.latency = append(r.latency, lat...)
	r.openP50 = append(r.openP50, median(lat))
	fmt.Printf("server %d: open-loop p50 %.1f ms over %d requests\n", k, median(lat), len(lat))

	satSpan := r.serveShare() - r.openSpan()
	base = r.satNext
	sat := closedLoop(conns, satSpan, func(w, i int) error { return record(w, base+i) })
	r.satNext += len(sat)
	r.record("saturation", sat)
	r.note("saturation_qps", windows(sat, satSpan)...)
}

// grade sets qerror_p50 over the answered queries and applies the accuracy
// gates to its p50 and p95.
func (r *run) grade(answers map[int]answer, truth func(i int) float64, gateP50, gateP95 float64) {
	var qe []float64
	for i, a := range answers {
		qe = append(qe, qerror(a.Card, truth(i)))
	}
	if len(qe) == 0 {
		r.fail("no answers to grade")
		return
	}
	p50, p95 := quantile(qe, 0.5), quantile(qe, 0.95)
	fmt.Printf("q-error over %d answers: p50 %.3f p95 %.3f max %.3f\n", len(qe), p50, p95, quantile(qe, 1))
	r.note("qerror_p50", p50)
	if p50 > gateP50 || p95 > gateP95 {
		r.fail("accuracy gate: q-error p50 %.3f (limit %.1f), p95 %.3f (limit %.1f) over %d answers",
			p50, gateP50, p95, gateP95, len(qe))
	}
}

// tail is the ingest tail of a serving workload: where to append, what to
// probe, and how to make each cycle's batches.
type tail struct {
	cycles                                 int
	appendPath, estPath, probe, modelsPath string
	batches                                func() [][]byte
	base, perCycle                         int     // rows the server holds before the tail, and rows each cycle adds
	maxCard                                float64 // bound on any card after the last cycle
}

// ingestTail runs t.cycles cycles: post the cycle's batches one by one,
// then wait until an answer to the probe query carries the next model
// version. Each budget crossing must cause exactly one hot-swap. It notes
// refresh_s.
func (r *run) ingestTail(c *client, t tail) {
	before, err := c.estimate(0, t.estPath, t.probe, t.maxCard)
	if err != nil {
		r.fail("tail probe: %v", err)
		return
	}
	version := before.ModelVersion
	for cycle := 0; cycle < t.cycles; cycle++ {
		var crossed time.Time
		var appends []opResult
		total := 0
		for _, b := range t.batches() {
			t0 := time.Now()
			ack, err := c.appendRows(0, t.appendPath, b)
			appends = append(appends, opResult{latency: time.Since(t0), err: err})
			if err != nil {
				r.record("tail-append", appends)
				return
			}
			crossed = time.Now()
			total = ack.TotalRows
		}
		r.record("tail-append", appends)
		if want := t.base + (cycle+1)*t.perCycle; total != want {
			r.fail("server holds %d rows after cycle %d's appends, want %d", total, cycle, want)
		}
		v, took, ops := r.awaitSwap(c, t, version, crossed)
		r.record("swap-wait", ops)
		if v == 0 {
			return
		}
		if v != version+1 {
			r.fail("cycle %d moved the model from version %d to %d, want exactly one hot-swap", cycle, version, v)
		}
		version = v
		r.note("refresh_s", took.Seconds())
	}
	r.checkActive(c, t.modelsPath, version)
}

// awaitSwap waits until an answer to the probe carries a version newer than
// old and returns that version and the time since crossed (the ack that
// crossed the refresh budget). It polls the models route, which costs the
// server next to nothing, and asks the probe once that route names a newer
// version: polling with estimates would take the cores from the refresh it
// waits for.
func (r *run) awaitSwap(c *client, t tail, old uint64, crossed time.Time) (uint64, time.Duration, []opResult) {
	var ops []opResult
	deadline := crossed.Add(90 * time.Second)
	for time.Now().Before(deadline) {
		t0 := time.Now()
		active, err := activeVersion(c, t.modelsPath)
		ops = append(ops, opResult{latency: time.Since(t0), err: err})
		if err == nil && active > old {
			t0 = time.Now()
			a, err := c.estimate(0, t.estPath, t.probe, t.maxCard)
			ops = append(ops, opResult{latency: time.Since(t0), err: err})
			if err == nil && a.ModelVersion > old {
				return a.ModelVersion, time.Since(crossed), ops
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	r.fail("no answer carried a model version newer than %d within 90s of crossing the refresh budget", old)
	return 0, 0, ops
}

// checkActive waits briefly and checks the active version is still v: no
// swap beyond those the budget crossings caused.
func (r *run) checkActive(c *client, modelsPath string, v uint64) {
	time.Sleep(200 * time.Millisecond)
	active, err := activeVersion(c, modelsPath)
	if err != nil {
		r.fail("reading %s: %v", modelsPath, err)
		return
	}
	if active != v {
		r.fail("active model version %d, want %d", active, v)
	}
}

// activeVersion reads the active model version from a models route.
func activeVersion(c *client, modelsPath string) (uint64, error) {
	var m struct {
		Active uint64 `json:"active"`
	}
	err := c.getJSON(modelsPath, &m)
	return m.Active, err
}

// shiftedRows picks n rows of d for appending: rows from the older part of
// valid_date, so the marginals shift while every value is already in the
// base table's domain.
func shiftedRows(d *dmvData, n int, rng *rand.Rand) []int {
	date := -1
	for c, name := range d.names {
		if name == "valid_date" {
			date = c
		}
	}
	var old []int
	for i, v := range d.cols[date] {
		if v < 1900 {
			old = append(old, i)
		}
	}
	out := make([]int, n)
	for i := range out {
		out[i] = old[rng.Intn(len(old))]
	}
	return out
}

func (r *run) trainDMV(csv string) func(model string) error {
	return func(model string) error {
		return runTool(model+".log", r.naru, "train", "-csv", csv, "-out", model,
			"-epochs", strconv.Itoa(dmvEpochs), "-hidden", dmvHidden, "-batch", strconv.Itoa(dmvBatch),
			"-samples", strconv.Itoa(samples), "-seed", strconv.FormatInt(r.seed, 10),
			"-train-workers", strconv.Itoa(conns))
	}
}

// serveDMV starts naru serve with the coalescer on, nproc workers and the
// lifecycle refreshing after budget appended rows.
func (r *run) serveDMV(csv string, budget int) func(i int, model string) (*child, error) {
	return func(i int, model string) (*child, error) {
		return startServer(model+".serve.log", r.naru, "serve", "-csv", csv, "-model", model,
			"-addr", "127.0.0.1:0", "-samples", strconv.Itoa(samples), "-batch-window", "1ms",
			"-max-inflight", strconv.Itoa(conns), "-workers", strconv.Itoa(conns),
			"-refresh-after", strconv.Itoa(budget), "-refresh-epochs", strconv.Itoa(refreshEpoch))
	}
}

// dmvOpen: the synthetic DMV table with §6.1.3 queries, no repeats, served
// by `naru serve` with the coalescer on.
func (r *run) dmvOpen() error {
	d := genDMV(dmvRows, r.seed)
	csv := r.path("dmv.csv")
	if err := d.writeCSV(csv); err != nil {
		return err
	}
	pool := newDMVPool(d, rand.New(rand.NewSource(r.seed+1)))
	// Query 0 is the ingest tail's probe; the served queries follow it.
	probe := pool.get(0)
	r.firstQuery(dmvOpenRate, 1)
	rng := rand.New(rand.NewSource(r.seed + 2)) // appended rows
	budget := tailBatches * tailRows
	maxCard := float64(d.numRows())
	answers := map[int]answer{}
	err := r.servers(r.trainDMV(csv), r.serveDMV(csv, budget), func(k int, c *client) error {
		r.openAndSaturate(dmvOpenRate, k, answers, func(w, i int) (answer, error) {
			return c.estimate(w, dmvEstimatePath, pool.get(i), maxCard)
		})
		r.ingestTail(c, tail{
			cycles: tailCycles, appendPath: dmvAppendPath, estPath: dmvEstimatePath, probe: probe, modelsPath: "/models",
			batches: func() [][]byte {
				var bs [][]byte
				for b := 0; b < tailBatches; b++ {
					bs = append(bs, d.csvRows(shiftedRows(d, tailRows, rng)))
				}
				return bs
			},
			base: d.numRows(), perCycle: budget, maxCard: maxCard + float64(tailCycles*budget),
		})
		return nil
	})
	if err != nil {
		return err
	}
	r.grade(answers, func(i int) float64 {
		ps, err := parseWhere(pool.get(i), d.names)
		if err != nil {
			panic(err) // the benchmark rendered it
		}
		return float64(d.count(ps))
	}, dmvGateP50, dmvGateP95)
	r.countSamples(answers)
	return nil
}

// countSamples checks every model answer ran the full sample budget or was
// answered exactly (0 samples: enumeration or a provably empty region).
func (r *run) countSamples(answers map[int]answer) {
	for _, a := range answers {
		if a.Samples != 0 && a.Samples != samples {
			r.fail("an answer completed %d of %d samples", a.Samples, samples)
			return
		}
	}
}

// joinOpen: customers ⋈ orders ⋈ items with anchored 1-3 predicate queries,
// served by a JoinTenant in its own process.
func (r *run) joinOpen() error {
	j := genJoin(joinCustomers, r.seed)
	spec, err := j.write(r.dir)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(r.seed + 1))
	qs, truths := joinQueries(j, 2000, rng)
	items := len(j.itemOrder)
	if last := items + (joinCycles-1)*joinTailRows; joinTailRows < joinRefreshFraction*float64(last) {
		return fmt.Errorf("an append of %d items to %d does not cross the refresh budget of %.0f%% growth",
			joinTailRows, last, 100*joinRefreshFraction)
	}
	seed := strconv.FormatInt(r.seed, 10)
	train := func(model string) error {
		return runTool(model+".log", r.naru, "train", "-join", spec, "-out", model,
			"-epochs", strconv.Itoa(joinEpochs), "-hidden", joinHidden, "-batch", strconv.Itoa(joinBatch),
			"-samples", strconv.Itoa(samples), "-seed", seed, "-train-workers", strconv.Itoa(conns))
	}
	start := func(i int, model string) (*child, error) {
		return startServer(model+".serve.log", r.self, "serve-join", "-dir", r.dir, "-model", model, "-seed", seed)
	}
	r.firstQuery(joinOpenRate, 0)
	answers := map[int]answer{}
	err = r.servers(train, start, func(k int, c *client) error {
		r.openAndSaturate(joinOpenRate, k, answers, func(w, i int) (answer, error) {
			return c.estimate(w, joinEstimate, qs[i%len(qs)].rendered, float64(items))
		})
		// Each cycle is one append whose growth crosses the refresh budget.
		r.ingestTail(c, tail{
			cycles: joinCycles, appendPath: joinAppendItems, estPath: joinEstimate, probe: qs[0].rendered,
			modelsPath: joinModels,
			batches: func() [][]byte {
				var buf bytes.Buffer
				for n := 0; n < joinTailRows; n++ {
					it := rng.Intn(items)
					fmt.Fprintf(&buf, "%d,%d\n", j.itemOrder[it], j.itemPrice[it])
				}
				return [][]byte{buf.Bytes()}
			},
			base: items, perCycle: joinTailRows, maxCard: float64(items + joinCycles*joinTailRows),
		})
		return nil
	})
	if err != nil {
		return err
	}
	r.grade(answers, func(i int) float64 { return float64(truths[i%len(qs)]) }, joinGateP50, joinGateP95)
	return nil
}
