package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"strudel"
	"strudel/internal/table"
)

// state is what one set-up produces: the fixture model, loaded back from
// its saved file, and the workload's inputs.
type state struct {
	cfg       config
	model     *strudel.Model
	modelJSON []byte
	inputs    []input
	serve     *serveState
}

// fixtureModel trains the fixed model every workload runs and sends it
// through Save and LoadModel, the cold start of a serving process.
func fixtureModel(ctx context.Context) (*strudel.Model, []byte, error) {
	train, err := strudel.GenerateCorpus("saus", 0.2)
	if err != nil {
		return nil, nil, err
	}
	m, err := strudel.TrainContext(ctx, train, strudel.TrainOptions{Trees: 20, Seed: 1, MaxCellsPerFile: 300})
	if err != nil {
		return nil, nil, fmt.Errorf("train fixture model: %w", err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf, strudel.FormatJSON); err != nil {
		return nil, nil, fmt.Errorf("save fixture model: %w", err)
	}
	loaded, err := strudel.LoadModel(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return nil, nil, fmt.Errorf("load fixture model: %w", err)
	}
	return loaded, buf.Bytes(), nil
}

// setup builds the fixture model and the inputs, and runs the untimed
// warm-up pass.
func setup(ctx context.Context, cfg config) (*state, error) {
	model, raw, err := fixtureModel(ctx)
	if err != nil {
		return nil, err
	}
	st := &state{cfg: cfg, model: model, modelJSON: raw}
	if cfg.workload == "serve" {
		return st, st.setupServe(ctx)
	}
	if st.inputs, err = makeInputs(cfg.workload, cfg.seed, cfg.sizes); err != nil {
		return nil, err
	}
	return st, st.warmUp(ctx)
}

// warmUp annotates inputs until warmBytes have been annotated or every
// input has been, so heap size and pools reach their steady state before
// timing. It starts from the last input, so large warms up on one of its
// biggest files; the stream workload warms up on a prefix of its stream.
func (st *state) warmUp(ctx context.Context) error {
	if st.cfg.workload == "stream" {
		data := st.inputs[0].data
		data = data[:min(len(data), st.cfg.sizes.warmBytes)]
		_, err := st.model.AnnotateStream(ctx, bytes.NewReader(data), strudel.StreamOptions{},
			func(strudel.LineAnnotation) error { return nil })
		return err
	}
	done := 0
	for i := len(st.inputs) - 1; i >= 0 && done < st.cfg.sizes.warmBytes; i-- {
		in := st.inputs[i]
		t, _, err := strudel.LoadBytes(in.data, strudel.LoadOptions{})
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		st.model.Annotate(t)
		done += len(in.data)
	}
	return nil
}

func (st *state) close() error {
	if st.serve != nil {
		return st.serve.rig.close()
	}
	return nil
}

// passStats is what one pass over a workload's inputs measured. A pass is
// every input once (files, large), one stream (stream), or one second of
// the request schedule (serve).
type passStats struct {
	ops        int
	bytes      int64
	busy       time.Duration
	allocBytes uint64
	peakHeap   uint64
}

// e2eRun is the outcome of the untraced measurement.
type e2eRun struct {
	passes    []passStats
	latencies []float64 // ms: per op, per emission gap (stream), per request (serve)
	digests   []uint64  // per input, from the first pass
	acc       tally
	attempted int
	failed    int
	checks    []check
	serve     *serveRun
}

// measure runs whole passes of the workload until budget has elapsed, at
// least one pass.
func (st *state) measure(ctx context.Context, budget time.Duration) (*e2eRun, error) {
	if st.cfg.workload == "serve" {
		return st.measureServe(ctx)
	}
	run := &e2eRun{digests: make([]uint64, len(st.inputs))}
	peak := startHeapPeak()
	defer peak.stop()
	runtime.GC()
	peak.take()
	mismatches := 0
	start := time.Now()
	for p := 0; p == 0 || time.Since(start) < budget; p++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		a0 := allocatedBytes()
		var ps passStats
		var err error
		if st.cfg.workload == "stream" {
			err = st.streamPass(ctx, p, run, &ps, &mismatches)
		} else {
			st.filesPass(p, run, &ps, &mismatches)
		}
		if err != nil {
			return nil, err
		}
		a1 := allocatedBytes()
		ps.allocBytes = a1 - a0
		ps.peakHeap = peak.take()
		run.passes = append(run.passes, ps)
	}
	run.checks = append(run.checks, check{
		name: "every pass yields the same classes",
		ok:   mismatches == 0,
		info: fmt.Sprintf("%d passes, %d outputs differ from the first pass", len(run.passes), mismatches),
	})
	return run, nil
}

// filesPass annotates every input once through LoadBytes and Annotate.
func (st *state) filesPass(p int, run *e2eRun, ps *passStats, mismatches *int) {
	for i, in := range st.inputs {
		start := time.Now()
		t, _, err := strudel.LoadBytes(in.data, strudel.LoadOptions{})
		var ann *strudel.Annotation
		if err == nil {
			ann = st.model.Annotate(t)
		}
		d := time.Since(start)
		run.attempted++
		ps.ops++
		ps.bytes += int64(len(in.data))
		ps.busy += d
		run.latencies = append(run.latencies, ms(d))
		if err != nil || ann.Err != nil {
			run.failed++
			continue
		}
		dg := digestAll(ann.Lines, ann.Cells)
		if p == 0 {
			run.digests[i] = dg
			run.acc.file(in.gold, ann.Lines, ann.Cells)
		} else if dg != run.digests[i] {
			*mismatches++
		}
	}
}

// streamPass annotates the stream once through AnnotateStream. Its latency
// samples are the gaps between successive window emissions: the time from
// the start (or the previous window) until another DefaultStreamWindowLines
// lines have been emitted.
func (st *state) streamPass(ctx context.Context, p int, run *e2eRun, ps *passStats, mismatches *int) error {
	in := st.inputs[0]
	dg := newDigester()
	lines := 0
	var last time.Time
	emit := func(la strudel.LineAnnotation) error {
		dg.line(la.Class, la.Cells)
		if p == 0 {
			run.acc.row(in.gold, la.Row, la.Class, la.Cells)
		}
		if lines++; lines%strudel.DefaultStreamWindowLines == 0 {
			now := time.Now()
			run.latencies = append(run.latencies, ms(now.Sub(last)))
			last = now
		}
		return nil
	}
	start := time.Now()
	last = start
	_, err := st.model.AnnotateStream(ctx, bytes.NewReader(in.data), strudel.StreamOptions{}, emit)
	d := time.Since(start)
	run.attempted++
	ps.ops++
	ps.bytes += int64(len(in.data))
	ps.busy += d
	if err != nil {
		if ctx.Err() != nil {
			return err
		}
		run.failed++
		return nil
	}
	if p == 0 {
		run.acc.missing(in.gold, lines)
		run.digests[0] = uint64(dg)
	} else if uint64(dg) != run.digests[0] {
		*mismatches++
	}
	return nil
}

// replayPass is the span range one replay pass recorded, the bytes it
// covered, and the summed time of the untraced operations paired with it.
type replayPass struct {
	lo, hi int
	bytes  int64
	ref    time.Duration
}

// traceRun is the outcome of the traced replay.
type traceRun struct {
	r          *replayer
	allocPass  replayPass   // the pass that counted allocations
	passes     []replayPass // the timed passes
	check      check
	ops        int
	failed     int
	mismatches int
}

// servePassLen is how many distinct bodies one timed replay pass of the
// serve workload covers; serve never resends a body there, so its passes
// walk the bodies once instead of cycling over them.
const servePassLen = 100

// replay runs the traced replay: one pass over the inputs that counts
// allocations, then timed passes until budget has elapsed, at least one. In
// a timed pass every input is first run untraced through the public API
// and then replayed layer by layer, so the layer times and the untraced
// time they are a share of see the same machine conditions. Every replay's
// classes are checked against want, the untraced run's digests.
func (st *state) replay(ctx context.Context, budget time.Duration, fx *fixture, want []uint64) (*traceRun, error) {
	tr := &traceRun{r: &replayer{fx: fx, tr: newTracer()}}
	refFailed := 0
	one := func(i int) {
		in := st.inputs[i]
		tr.ops++
		var dg uint64
		var err error
		if st.cfg.workload == "stream" {
			d := newDigester()
			err = tr.r.stream(i, in.data, func(_ int, cls table.Class, cells []table.Class) { d.line(cls, cells) })
			dg = uint64(d)
		} else {
			var lines []table.Class
			var cells [][]table.Class
			lines, cells, err = tr.r.file(i, in.data)
			dg = digestAll(lines, cells)
		}
		switch {
		case err != nil:
			tr.failed++
		case dg != want[i]:
			tr.mismatches++
		}
	}

	passLen, cycle := len(st.inputs), true
	if st.cfg.workload == "serve" {
		passLen, cycle = min(servePassLen, len(st.inputs)), false
	}
	tr.r.tr.countAllocs = true
	tr.allocPass.lo = len(tr.r.tr.spans)
	for i := 0; i < passLen; i++ {
		tr.allocPass.bytes += int64(len(st.inputs[i].data))
		one(i)
	}
	tr.allocPass.hi = len(tr.r.tr.spans)
	tr.r.tr.countAllocs = false
	tr.r.lineRows, tr.r.cellRows = 0, 0 // rows_per_s counts the timed passes only

	start := time.Now()
	next := 0
	for len(tr.passes) == 0 || time.Since(start) < budget {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if !cycle && next+passLen > len(st.inputs) {
			break
		}
		rp := replayPass{lo: len(tr.r.tr.spans)}
		for k := 0; k < passLen; k++ {
			i := next % len(st.inputs)
			next++
			d, err := st.referenceOp(ctx, i)
			if err != nil {
				if ctx.Err() != nil {
					return nil, err
				}
				refFailed++
			}
			tr.ops++
			rp.ref += d
			rp.bytes += int64(len(st.inputs[i].data))
			one(i)
		}
		rp.hi = len(tr.r.tr.spans)
		tr.passes = append(tr.passes, rp)
	}
	tr.failed += refFailed
	tr.check = check{
		name: "traced replay equals the untraced run",
		ok:   tr.mismatches == 0 && tr.failed == 0,
		info: fmt.Sprintf("%d timed passes, %d replays differ, %d replays and %d untraced runs failed",
			len(tr.passes), tr.mismatches, tr.failed-refFailed, refFailed),
	}
	return tr, nil
}

// referenceOp runs input i once, untraced, through the public API the
// workload measures, and returns how long it took. For serve it sends the
// body to a service whose cache has not seen it, and checks the response
// against the first one the open loop received.
func (st *state) referenceOp(ctx context.Context, i int) (time.Duration, error) {
	in := st.inputs[i]
	start := time.Now()
	var err error
	switch st.cfg.workload {
	case "stream":
		_, err = st.model.AnnotateStream(ctx, bytes.NewReader(in.data), strudel.StreamOptions{},
			func(strudel.LineAnnotation) error { return nil })
	case "serve":
		var status int
		var body []byte
		status, _, body, err = st.serve.rig.post(ctx, in.data)
		if err == nil && (status != http.StatusOK || hashBytes(body) != st.serve.fresh[i].hash) {
			err = fmt.Errorf("input %d: status %d or a body unlike the open loop's", i, status)
		}
	default:
		var t *strudel.Table
		if t, _, err = strudel.LoadBytes(in.data, strudel.LoadOptions{}); err == nil {
			st.model.Annotate(t)
		}
	}
	return time.Since(start), err
}
