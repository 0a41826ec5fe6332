package main

// The traced run: the same workload in process, with each layer's public
// entry points timed by wrappers kept in this file. A layer's self time is
// its calls' wall time minus the part of it that the calls into the layer
// below cover. Spans inside the program are not recorded; where the program
// calls a layer internally (the server's parse, the join estimator's model),
// the layer is timed by calling its public function directly on the same
// inputs, or reported as 0 when it cannot be reached from outside.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	naru "repro"
	"repro/internal/core"
	"repro/internal/made"
	"repro/internal/neurocard"
	"repro/internal/nn"
	"repro/internal/query"
	"repro/internal/server"
	"repro/internal/table"
)

// layerUnits names every per-layer metric with its unit. Times are per query
// unless the README says otherwise.
var layerUnits = map[string]string{
	"server.handler_us": "us", "server.self_us": "us", "query.parse_us": "us",
	"core.estimate_us": "us", "core.self_us": "us", "made.advance_us": "us", "made.decode_us": "us",
	"made.advance_rows": "rows", "made.decode_rows": "rows", "made.decode_logits": "count",
	"core.block_rows": "rows", "naru.samples": "count", "neurocard.estimate_us": "us",
	"server.cache_hit_ratio": "ratio", "lifecycle.append_ms": "ms", "lifecycle.refresh_s": "s",
	"lifecycle.refresh_self_ms": "ms", "core.train_rows_per_s": "rows/s", "made.gradstep_ms": "ms",
	"core.step_self_ms": "ms",
}

// span is one timed call, in nanoseconds since the recorder's origin.
type span struct{ start, end int64 }

// recorder collects call spans and counts per operation. Safe for
// concurrent use: forked replicas and row-parallel ranges record into it
// from several goroutines.
type recorder struct {
	origin time.Time
	mu     sync.Mutex
	spans  map[string][]span
	counts map[string]float64
}

func newRecorder() *recorder {
	return &recorder{origin: time.Now(), spans: map[string][]span{}, counts: map[string]float64{}}
}

func (rc *recorder) now() int64 { return int64(time.Since(rc.origin)) }

// done records the span [start, now) under op.
func (rc *recorder) done(op string, start int64) {
	end := rc.now()
	rc.mu.Lock()
	rc.spans[op] = append(rc.spans[op], span{start, end})
	rc.mu.Unlock()
}

func (rc *recorder) add(op string, n float64) {
	rc.mu.Lock()
	rc.counts[op] += n
	rc.mu.Unlock()
}

func (rc *recorder) reset() {
	rc.mu.Lock()
	rc.spans = map[string][]span{}
	rc.counts = map[string]float64{}
	rc.mu.Unlock()
}

// cover is the wall time covered by the union of the spans of ops.
func (rc *recorder) cover(ops ...string) time.Duration {
	rc.mu.Lock()
	var all []span
	for _, op := range ops {
		all = append(all, rc.spans[op]...)
	}
	rc.mu.Unlock()
	sort.Slice(all, func(i, j int) bool { return all[i].start < all[j].start })
	var total, curS, curE int64
	curS, curE = -1, -1
	for _, s := range all {
		if s.start > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = s.start, s.end
		} else if s.end > curE {
			curE = s.end
		}
	}
	if curE > curS {
		total += curE - curS
	}
	return time.Duration(total)
}

// extent is the time from the first span's start to the last span's end.
func (rc *recorder) extent(ops ...string) time.Duration {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	lo, hi := int64(math.MaxInt64), int64(0)
	for _, op := range ops {
		for _, s := range rc.spans[op] {
			lo, hi = min(lo, s.start), max(hi, s.end)
		}
	}
	if hi < lo {
		return 0
	}
	return time.Duration(hi - lo)
}

func (rc *recorder) count(op string) float64 {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.counts[op]
}

// Operations the model wrapper records.
const (
	opAdvance   = "made.advance"
	opDecode    = "made.decode"
	opModel     = "made.other" // CondBatch, LogProbBatch, BeginSampling
	opGradStep  = "made.gradstep"
	opTrainStep = "made.trainstep"
)

// tracedModel wraps a MADE model and times every call the program makes
// into it. It forwards every optional interface the program asserts
// (Forkable, SequentialModel, BlockModel, BlockRowAdvancer, BlockRowDecoder,
// WildcardSkipper, Trainable, ShardTrainable and CloneModel), so the program
// takes the same paths with it as with the bare model; the assertions below
// keep that true at compile time.
type tracedModel struct {
	m  *made.Model
	rc *recorder
}

var (
	_ core.Forkable         = (*tracedModel)(nil)
	_ core.BlockRowAdvancer = (*tracedModel)(nil)
	_ core.BlockRowDecoder  = (*tracedModel)(nil)
	_ core.WildcardSkipper  = (*tracedModel)(nil)
	_ core.ShardTrainable   = (*tracedModel)(nil)
	_ interface {
		CloneModel() (any, error)
	} = (*tracedModel)(nil)
)

func (t *tracedModel) NumCols() int        { return t.m.NumCols() }
func (t *tracedModel) DomainSizes() []int  { return t.m.DomainSizes() }
func (t *tracedModel) SizeBytes() int64    { return t.m.SizeBytes() }
func (t *tracedModel) Params() []*nn.Param { return t.m.Params() }
func (t *tracedModel) SkipsWildcards() bool {
	return t.m.SkipsWildcards()
}

func (t *tracedModel) CondBatch(codes []int32, n int, col int, out [][]float64) {
	defer t.rc.done(opModel, t.rc.now())
	t.m.CondBatch(codes, n, col, out)
}

func (t *tracedModel) LogProbBatch(codes []int32, n int, dst []float64) {
	defer t.rc.done(opModel, t.rc.now())
	t.m.LogProbBatch(codes, n, dst)
}

func (t *tracedModel) ForkModel() any { return &tracedModel{t.m.Fork(), t.rc} }

func (t *tracedModel) BeginSampling(n int) {
	defer t.rc.done(opModel, t.rc.now())
	t.rc.add("blocks", 1)
	t.rc.add("block_rows", float64(n))
	t.m.BeginSampling(n)
}

func (t *tracedModel) AdvanceBlock(codes []int32, n, col int) {
	defer t.rc.done(opAdvance, t.rc.now())
	t.rc.add("advance_rows", float64(n))
	t.m.AdvanceBlock(codes, n, col)
}

func (t *tracedModel) BeginAdvanceRows(n, col int) {
	defer t.rc.done(opAdvance, t.rc.now())
	t.m.BeginAdvanceRows(n, col)
}

func (t *tracedModel) AdvanceRows(codes []int32, col, r0, r1 int) {
	defer t.rc.done(opAdvance, t.rc.now())
	t.rc.add("advance_rows", float64(r1-r0))
	t.m.AdvanceRows(codes, col, r0, r1)
}

func (t *tracedModel) FinishAdvanceRows(col int) {
	defer t.rc.done(opAdvance, t.rc.now())
	t.m.FinishAdvanceRows(col)
}

func (t *tracedModel) PrepareDecode(col int) {
	defer t.rc.done(opDecode, t.rc.now())
	t.m.PrepareDecode(col)
}

func (t *tracedModel) DecodeBlock(col, r0, r1 int, out [][]float64) {
	defer t.rc.done(opDecode, t.rc.now())
	t.rc.add("decode_rows", float64(r1-r0))
	t.rc.add("decode_logits", float64((r1-r0)*t.m.DomainSizes()[col]))
	t.m.DecodeBlock(col, r0, r1, out)
}

func (t *tracedModel) TrainStep(codes []int32, n int, opt *nn.Adam) float64 {
	defer t.rc.done(opTrainStep, t.rc.now())
	return t.m.TrainStep(codes, n, opt)
}

func (t *tracedModel) GradStep(codes []int32, n int) float64 {
	defer t.rc.done(opGradStep, t.rc.now())
	return t.m.GradStep(codes, n)
}

func (t *tracedModel) ForkTrain() any { return &tracedModel{t.m.TrainFork(), t.rc} }

func (t *tracedModel) CloneModel() (any, error) {
	c, err := t.m.Clone()
	if err != nil {
		return nil, err
	}
	return &tracedModel{c, t.rc}, nil
}

// traced runs the workload's traced pass.
func (r *run) traced(workload string) error {
	if workload == "join-open" {
		return r.traceJoin()
	}
	return r.traceDMV()
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// traceQueries is how many queries each serving pass of a traced run asks:
// enough that the run measures for about as long as an end-to-end run.
func (r *run) traceQueries(perSecond int) int { return perSecond * int(r.span.Seconds()) }

func (r *run) traceDMV() error {
	d := genDMV(dmvRows, r.seed)
	csv := r.path("dmv.csv")
	if err := d.writeCSV(csv); err != nil {
		return err
	}
	tbl, err := loadCSV(csv, "dmv")
	if err != nil {
		return err
	}
	rc := newRecorder()

	// Training, as `naru train` runs it; the trained bytes must equal the
	// CLI's, so the traced training is the set-up's training.
	cliModel := r.path("cli.naru")
	if err := r.trainDMV(csv)(cliModel); err != nil {
		return err
	}
	hidden, _ := parseInts(dmvHidden)
	raw := made.New(tbl.DomainSizes(), made.Config{HiddenSizes: hidden, EmbedThreshold: 64, EmbedDim: 64, Seed: r.seed})
	tc := core.TrainConfig{Epochs: dmvEpochs, BatchSize: dmvBatch, LR: 2e-3, Seed: r.seed + 1, Workers: conns}
	t0 := time.Now()
	if _, err := core.TrainRun(&tracedModel{raw, rc}, tbl, tc); err != nil {
		return err
	}
	r.trainMetrics(rc, time.Since(t0), dmvEpochs*(tbl.NumRows()/dmvBatch), dmvBatch)
	cfg := naru.Config{Samples: samples, HiddenSizes: hidden, Seed: r.seed}
	var saved bytes.Buffer
	if err := naru.NewFromModel(raw, tbl, cfg).Save(&saved); err != nil {
		return err
	}
	if cli, err := os.ReadFile(cliModel); err != nil {
		return err
	} else if !bytes.Equal(cli, saved.Bytes()) {
		r.fail("traced training wrote a different model than naru train")
	}

	qs := dmvQueries(d, r.traceQueries(24), rand.New(rand.NewSource(r.seed+1)))
	parsed := r.parsePass(qs, tbl)
	r.corePass(rc, raw, tbl, parsed)

	// Serving through the tenant handler, as naru serve builds it, then the
	// ingest tail: appends up to the refresh budget and one refresh.
	est := naru.NewFromModel(&tracedModel{raw, rc}, tbl, naru.Config{Samples: samples})
	budget := tailBatches * tailRows
	if err := est.EnableLifecycle(tbl, naru.LifecycleConfig{RefreshAfter: budget, RefreshEpochs: refreshEpoch}); err != nil {
		return err
	}
	reg := naru.NewMetrics()
	h, closeSrv, err := dmvHandler(est, tbl, reg)
	if err != nil {
		return err
	}
	defer closeSrv()
	hd := &handlerTimer{h: h, path: dmvEstimatePath}
	r.serve(hd, qs)
	var batches [][]byte
	appended := rand.New(rand.NewSource(r.seed + 2))
	for b := 0; b < tailBatches; b++ {
		batches = append(batches, d.csvRows(shiftedRows(d, tailRows, appended)))
	}
	r.lifecycle(rc, est, batches)
	r.handlerMetrics(hd, r.metrics["core.estimate_us"])
	hits := float64(reg.Counter("naru_cache_hits_total").Value())
	misses := float64(reg.Counter("naru_cache_misses_total").Value())
	r.metrics["server.cache_hit_ratio"] = hits / (hits + misses)
	fmt.Printf("cache: %.0f hits of %.0f lookups\n", hits, hits+misses)
	r.metrics["neurocard.estimate_us"] = 0
	return nil
}

func loadCSV(path, name string) (*table.Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return table.LoadCSV(f, name)
}

// dmvHandler builds the serving handler naru serve builds for -csv mode with
// the benchmark's flags: coalescer on, nproc workers, default result cache.
func dmvHandler(est *naru.Estimator, tbl *table.Table, reg *naru.Metrics) (http.Handler, func(), error) {
	tn := server.NewTenant("default", est, tbl, server.TenantOptions{
		Serve:       naru.ServeOptions{Workers: conns},
		BatchWindow: time.Millisecond,
		MaxInFlight: conns,
		Metrics:     reg,
	})
	srv := server.New(server.Options{Metrics: reg})
	if err := srv.Add(tn); err != nil {
		return nil, nil, err
	}
	srv.Start(context.Background())
	return srv.Handler(), srv.Close, nil
}

// trainMetrics turns the spans of one training run into the training layer
// metrics.
func (r *run) trainMetrics(rc *recorder, wall time.Duration, steps, batch int) {
	inStep := rc.cover(opGradStep, opTrainStep)
	r.metrics["core.train_rows_per_s"] = float64(steps*batch) / wall.Seconds()
	r.metrics["made.gradstep_ms"] = ms(inStep) / float64(steps)
	r.metrics["core.step_self_ms"] = ms(wall-inStep) / float64(steps)
	fmt.Printf("training: %d steps of %d rows in %.3fs, %.1f%% of it inside the model's step\n",
		steps, batch, wall.Seconds(), 100*inStep.Seconds()/wall.Seconds())
	rc.reset()
}

// parsePass times query.ParseWhere, the server's first step, on every query.
func (r *run) parsePass(qs []string, tbl *table.Table) []query.Query {
	out := make([]query.Query, len(qs))
	t0 := time.Now()
	for i, s := range qs {
		q, err := query.ParseWhere(s, tbl)
		if err != nil {
			r.fail("parse %q: %v", s, err)
		}
		out[i] = q
	}
	r.metrics["query.parse_us"] = us(time.Since(t0)) / float64(len(qs))
	return out
}

// corePass runs EstimateFused over consecutive query pairs (the batches two
// connections form) on the traced model and on the bare model, alternating
// pair by pair, and checks the answers are bit-identical.
func (r *run) corePass(rc *recorder, raw *made.Model, tbl *table.Table, qs []query.Query) {
	rc.reset()
	plain := core.NewEstimator(raw, samples, 2)
	traced := core.NewEstimator(&tracedModel{raw, rc}, samples, 2)
	opts := core.ServeOptions{Workers: conns}
	var plainWall, tracedWall time.Duration
	calls := 0
	mismatches := 0
	var checks []opResult
	samplesDone := 0.0
	for i := 0; i+1 < len(qs); i += 2 {
		var regs []*query.Region
		for _, q := range qs[i : i+2] {
			reg, err := query.CompileSnapshot(q, raw.DomainSizes(), tbl)
			if err != nil {
				r.fail("compile: %v", err)
				return
			}
			regs = append(regs, reg)
		}
		t0 := time.Now()
		want := plain.EstimateFused(context.Background(), regs, opts)
		t1 := time.Now()
		got := traced.EstimateFused(context.Background(), regs, opts)
		tracedWall += time.Since(t1)
		plainWall += t1.Sub(t0)
		calls++
		for k := range got {
			if math.Float64bits(got[k].Sel) != math.Float64bits(want[k].Sel) ||
				math.Float64bits(got[k].StdErr) != math.Float64bits(want[k].StdErr) ||
				got[k].Samples != want[k].Samples || got[k].Source != core.SourceModel {
				mismatches++
				checks = append(checks, opResult{err: errors.New("traced estimate differs from the untraced run's bits")})
			} else {
				checks = append(checks, opResult{})
			}
			samplesDone += float64(got[k].Samples)
		}
	}
	nq := float64(2 * calls)
	r.record("trace-estimate", checks)
	model := rc.cover(opAdvance, opDecode, opModel)
	adv, dec := rc.cover(opAdvance), rc.cover(opDecode)
	per := func(d time.Duration) float64 { return us(d) / float64(calls) }
	r.metrics["core.estimate_us"] = per(tracedWall)
	r.metrics["core.self_us"] = per(tracedWall - model)
	r.metrics["made.advance_us"] = per(adv)
	r.metrics["made.decode_us"] = per(dec)
	r.metrics["made.advance_rows"] = rc.count("advance_rows") / nq
	r.metrics["made.decode_rows"] = rc.count("decode_rows") / nq
	r.metrics["made.decode_logits"] = rc.count("decode_logits") / nq
	r.metrics["core.block_rows"] = rc.count("block_rows") / math.Max(1, rc.count("blocks"))
	r.metrics["naru.samples"] = samplesDone / nq
	fmt.Printf("estimator: %d pair calls, %d estimates bit-identical to the untraced run; tracing overhead %+.2f%% of estimator wall\n",
		calls, int(nq)-mismatches, 100*(tracedWall.Seconds()/plainWall.Seconds()-1))
	fmt.Printf("estimator wall %.1fus/call = self %.1f + model cover %.1f (advance %.1f, decode %.1f, other %.1f; advance+decode overlap across shards %.1f)\n",
		per(tracedWall), per(tracedWall-model), per(model), per(adv), per(dec),
		per(model-rc.cover(opAdvance, opDecode)), per(adv+dec-rc.cover(opAdvance, opDecode)))
	rc.reset()
}

// handlerTimer times each request through the serving handler, apart for
// requests the result cache answered.
type handlerTimer struct {
	h      http.Handler
	path   string
	busy   atomic.Int64 // summed handler nanoseconds of model answers
	calls  atomic.Int64
	cached atomic.Int64
	fails  atomic.Int64
}

// serve sends the queries through the handler from conns goroutines, each
// taking the next query as soon as its last one is answered.
func (r *run) serve(hd *handlerTimer, qs []string) {
	inParallel(len(qs), func(_, i int) {
		req := httptest.NewRequest(http.MethodGet, hd.path+"?where="+url.QueryEscape(qs[i]), nil)
		rec := httptest.NewRecorder()
		t0 := time.Now()
		hd.h.ServeHTTP(rec, req)
		took := time.Since(t0)
		hd.calls.Add(1)
		body := rec.Body.String()
		switch {
		case rec.Code != http.StatusOK || !strings.Contains(body, `"source":"model"`):
			hd.fails.Add(1)
		case strings.Contains(body, `"cached":true`):
			hd.cached.Add(1)
		default:
			hd.busy.Add(int64(took))
		}
	})
}

// handlerMetrics sets the server layer metrics: handler time per request
// the model answered, and its self time, the part not spent parsing or in
// the estimator call.
func (r *run) handlerMetrics(hd *handlerTimer, est float64) {
	calls, fails := hd.calls.Load(), hd.fails.Load()
	ops := make([]opResult, calls)
	for i := range ops[:fails] {
		ops[i].err = errors.New("traced request was not answered by the model")
	}
	r.record("trace-serve", ops)
	handler := us(time.Duration(hd.busy.Load())) / float64(calls-fails-hd.cached.Load())
	r.metrics["server.handler_us"] = handler
	r.metrics["server.self_us"] = handler - r.metrics["query.parse_us"] - est
	fmt.Printf("server: %d requests (%d from the cache), handler %.1fus per model answer = parse %.1f + estimator %.1f + self %.1f\n",
		calls, hd.cached.Load(), handler, r.metrics["query.parse_us"], est, r.metrics["server.self_us"])
}

// lifecycle times each append batch and one refresh on the estimator's
// lifecycle.
func (r *run) lifecycle(rc *recorder, est *naru.Estimator, batches [][]byte) {
	var appendMs []float64
	for _, body := range batches {
		t0 := time.Now()
		if _, err := est.AppendCSV(bytes.NewReader(body)); err != nil {
			r.fail("append: %v", err)
			return
		}
		appendMs = append(appendMs, ms(time.Since(t0)))
	}
	r.metrics["lifecycle.append_ms"] = median(appendMs)
	rc.reset()
	t0 := time.Now()
	res, err := est.RefreshCtx(context.Background())
	wall := time.Since(t0)
	if err != nil {
		r.fail("refresh: %v", err)
		return
	}
	if res.Rebuilt {
		r.fail("refresh rebuilt the model; appended values should all be in the base domains")
	}
	train := rc.extent(opGradStep, opTrainStep)
	r.metrics["lifecycle.refresh_s"] = wall.Seconds()
	r.metrics["lifecycle.refresh_self_ms"] = ms(wall - train)
	fmt.Printf("refresh: %.3fs, of which %.3fs from first to last training step\n", wall.Seconds(), train.Seconds())
	rc.reset()
}

func (r *run) traceJoin() error {
	j := genJoin(joinCustomers, r.seed)
	if _, err := j.write(r.dir); err != nil {
		return err
	}
	sch, err := joinSchema(r.dir)
	if err != nil {
		return err
	}
	cfg := joinConfig(r.seed)
	// The join estimator builds its own model, so training is timed as a
	// whole: the model step and the loop around it cannot be separated here.
	t0 := time.Now()
	trained, _, err := neurocard.Train(context.Background(), sch, cfg)
	if err != nil {
		return err
	}
	wall := time.Since(t0)
	r.metrics["core.train_rows_per_s"] = float64(joinEpochs*(1<<15)) / wall.Seconds()
	var model bytes.Buffer
	if err := trained.Save(&model); err != nil {
		return err
	}
	load := func() (*neurocard.Estimator, error) {
		return neurocard.Load(bytes.NewReader(model.Bytes()), sch, cfg)
	}
	est, err := load()
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(r.seed + 1))
	jqs, truths := joinQueries(j, r.traceQueries(100), rng)
	qs := make([]string, len(jqs))
	for i, q := range jqs {
		qs[i] = q.rendered
	}
	parsed := r.parsePass(qs, est.LayoutTable())

	// EstimateQuery, sequentially, on two estimators loaded from the same
	// model: the timed pass must repeat the first pass bit for bit, and
	// grades as the end-to-end run does.
	again, err := load()
	if err != nil {
		return err
	}
	first := make([]float64, len(parsed))
	for i, q := range parsed {
		if first[i], _, err = again.EstimateQuery(q); err != nil {
			return fmt.Errorf("estimate %q: %v", qs[i], err)
		}
	}
	mismatches := 0
	var checks []opResult
	var qe []float64
	for i, q := range parsed {
		card, _, err := est.EstimateQuery(q)
		if err != nil {
			return fmt.Errorf("estimate %q: %v", qs[i], err)
		}
		if math.Float64bits(card) != math.Float64bits(first[i]) {
			mismatches++
			checks = append(checks, opResult{err: errors.New("join estimate did not repeat bit for bit")})
		} else {
			checks = append(checks, opResult{})
		}
		qe = append(qe, qerror(card, float64(truths[i])))
	}
	// The estimator alone and the serving handler are timed at the same
	// concurrency (conns closed-loop callers), alternating in chunks so both
	// see the same machine.
	srv := server.New(server.Options{})
	if err := srv.AddJoin(server.NewJoinTenant(joinTenantName, est)); err != nil {
		return err
	}
	srv.Start(context.Background())
	defer srv.Close()
	hd := &handlerTimer{h: srv.Handler(), path: joinEstimate}
	var busy atomic.Int64
	const chunk = 20
	for lo := 0; lo < len(parsed); lo += chunk {
		hi := min(lo+chunk, len(parsed))
		inParallel(hi-lo, func(_, i int) {
			t0 := time.Now()
			_, _, _ = again.EstimateQuery(parsed[lo+i])
			busy.Add(int64(time.Since(t0)))
		})
		r.serve(hd, qs[lo:hi])
	}
	r.record("trace-estimate", checks)
	r.metrics["neurocard.estimate_us"] = us(time.Duration(busy.Load())) / float64(len(parsed))
	fmt.Printf("join estimator: %d estimates, q-error p50 %.3f p95 %.3f\n", len(parsed), quantile(qe, 0.5), quantile(qe, 0.95))

	r.handlerMetrics(hd, r.metrics["neurocard.estimate_us"])

	// The ingest tail, as the end-to-end run drives it: each append crosses
	// the refresh budget and is followed by one refresh.
	var appendMs, refreshS []float64
	for cycle := 0; cycle < joinCycles; cycle++ {
		rows := make([][]string, joinTailRows)
		for k := range rows {
			it := rng.Intn(len(j.itemOrder))
			rows[k] = []string{strconv.Itoa(j.itemOrder[it]), strconv.Itoa(j.itemPrice[it])}
		}
		t0 := time.Now()
		if err := est.AppendRows("items", rows); err != nil {
			return err
		}
		appendMs = append(appendMs, ms(time.Since(t0)))
		if d := est.Drift(); d.GrowthFraction < joinRefreshFraction || !d.Stale {
			r.fail("an append of %d items grew them by %.4f and left the model fresh; the refresh budget is %.2f",
				joinTailRows, d.GrowthFraction, joinRefreshFraction)
		}
		t0 = time.Now()
		if err := est.Refresh(context.Background()); err != nil {
			return err
		}
		refreshS = append(refreshS, time.Since(t0).Seconds())
	}
	r.metrics["lifecycle.append_ms"] = median(appendMs)
	r.metrics["lifecycle.refresh_s"] = median(refreshS)

	// Not reachable from outside the program on this workload: the join
	// estimator's model, its walk and its training step, the refresh's
	// split, and a result cache (join tenants have none).
	for _, m := range []string{"core.estimate_us", "core.self_us", "made.advance_us", "made.decode_us",
		"made.advance_rows", "made.decode_rows", "made.decode_logits", "core.block_rows", "naru.samples",
		"server.cache_hit_ratio", "lifecycle.refresh_self_ms", "made.gradstep_ms", "core.step_self_ms"} {
		r.metrics[m] = 0
	}
	return nil
}
