// Command benchmark measures the strudel pipeline end to end, starting from
// raw bytes, on four seeded workloads, and checks that its outputs are
// correct. With --trace 1 it also replays the same inputs through each
// pipeline layer's exported entry points and reports where the time and the
// allocations go.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash benchmark/run.sh --workload files --seed 1 --seconds 15 --trace 0
//
// Every metric is printed on its own line with its sample count, median and
// quartiles. The last line of standard output is one JSON object with the
// keys correct, attempted, failed and metrics. The exit status is 0 only
// when every output check passed. README.md describes the workloads, the
// metrics and how to read a trace.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"syscall"
	"time"
)

type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// setups is how many times the run sets up; setup_s is the median.
	setups int
	sizes  sizes
}

// e2eBudget is how long the end-to-end measurement runs. A traced run
// gives it half of the time and the replay the other half.
func (c config) e2eBudget() time.Duration {
	if c.trace {
		return c.seconds / 2
	}
	return c.seconds
}

type metricDef struct{ name, unit string }

// e2eMetrics are printed by every workload without --trace.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"mb_per_s", "MB/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"alloc_bytes_per_byte", "B/B"},
	{"peak_heap_mb", "MB"},
	{"line_accuracy", "fraction"},
	{"cell_accuracy", "fraction"},
}

// procs is the GOMAXPROCS each workload runs at. The serial workloads
// get one processor: a single caller gains nothing from a second one, and
// on a two-vCPU virtual machine the wake-ups that hand work to it made
// runs up to 30% slower and their spread four times wider. serve runs its
// two workers and two connections on two.
var procs = map[string]int{"files": 1, "large": 1, "stream": 1, "serve": 2}

// tailQuantile is the percentile latency_tail_ms reports on each workload:
// the highest of p99 and p95 that leaves at least ten samples beyond it at
// the full run length (about 12000 samples on files, 300 on large and on
// stream, 4000 on serve). On large it falls among the 1 MiB files.
var tailQuantile = map[string]float64{"files": 0.99, "large": 0.95, "stream": 0.95, "serve": 0.99}

// layerMetrics are printed by every workload with --trace 1.
var layerMetrics = func() []metricDef {
	var out []metricDef
	for _, l := range layers {
		out = append(out,
			metricDef{l + ".share", "fraction"},
			metricDef{l + ".ms_per_mb", "ms/MB"},
			metricDef{l + ".allocs_per_mb", "allocs/MB"})
	}
	return append(out,
		metricDef{"other.share", "fraction"},
		metricDef{"other.ms_per_mb", "ms/MB"},
		metricDef{"forest.line.rows_per_s", "rows/s"},
		metricDef{"forest.cell.rows_per_s", "rows/s"},
		metricDef{"dialect.fallback_ratio", "fraction"},
		metricDef{"trace.overhead", "fraction"},
		metricDef{"cache.hit_ratio", "fraction"},
		metricDef{"admission.shed_ratio", "fraction"})
}()

type metric struct {
	name  string
	value float64
	unit  string
	dist  summary
}

// check is one output check; a failed check makes the run incorrect.
type check struct {
	name string
	ok   bool
	info string
}

type result struct {
	cfg       config
	metrics   []metric
	checks    []check
	notes     []string // what the run observed that is neither a metric nor a check
	attempted int
	failed    int
	spans     []span
}

func (r *result) add(def metricDef, value float64, dist summary) {
	r.metrics = append(r.metrics, metric{name: def.name, value: value, unit: def.unit, dist: dist})
}

func (r *result) correct() bool {
	for _, c := range r.checks {
		if !c.ok {
			return false
		}
	}
	for _, m := range r.metrics {
		if !finite(m.value) {
			return false
		}
	}
	return r.failed == 0 && r.attempted > 0
}

func main() {
	cfg := config{setups: 3, sizes: fullSizes}
	flag.StringVar(&cfg.workload, "workload", "", "files, large, stream or serve")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the inputs are generated from")
	seconds := flag.Float64("seconds", 20, "how long one run measures")
	trace := flag.Int("trace", 0, "1 replays the inputs layer by layer and prints the per-layer metrics")
	traceOut := flag.String("trace-out", "", "file to write the metric summaries and, with --trace 1, the spans to")
	flag.Parse()
	if _, ok := procs[cfg.workload]; !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: benchmark --workload files|large|stream|serve --seed N --seconds S --trace 0|1 [--trace-out FILE]")
		os.Exit(2)
	}
	cfg.seconds = time.Duration(*seconds * float64(time.Second))
	if cfg.trace = *trace == 1; cfg.trace {
		cfg.setups = 1 // a traced run reports no setup_s
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	res, err := run(ctx, cfg)
	stop()
	if err == nil && *traceOut != "" {
		err = res.writeTrace(*traceOut)
	}
	if err == nil {
		err = res.print(os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if !res.correct() {
		os.Exit(1)
	}
}

// run sets the workload up cfg.setups times, measures it, and with
// cfg.trace replays it layer by layer.
func run(ctx context.Context, cfg config) (*result, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs[cfg.workload]))
	var st *state
	var setupTimes []float64
	for i := 0; i < cfg.setups; i++ {
		if st != nil {
			if err := st.close(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		next, err := setup(ctx, cfg)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
		st = next
	}
	res, err := measureAll(ctx, st, setupTimes)
	if cerr := st.close(); err == nil && cerr != nil {
		err = fmt.Errorf("stop service: %w", cerr)
	}
	return res, err
}

func measureAll(ctx context.Context, st *state, setupTimes []float64) (*result, error) {
	res := &result{cfg: st.cfg}
	e2e, err := st.measure(ctx, st.cfg.e2eBudget())
	if err != nil {
		return nil, err
	}
	res.attempted += e2e.attempted
	res.failed += e2e.failed
	res.checks = append(res.checks, e2e.checks...)
	res.checks = append(res.checks, accuracyCheck(e2e.acc))
	if sr := e2e.serve; sr != nil {
		late := append([]float64(nil), sr.late...)
		sort.Float64s(late)
		res.notes = append(res.notes, fmt.Sprintf("the open loop sent its requests %.3f ms late at p50, %.3f ms at p99",
			quantile(late, 0.5), quantile(late, 0.99)))
	}
	if !st.cfg.trace {
		res.addE2E(e2e, setupTimes)
		return res, nil
	}
	return res, st.traced(ctx, e2e, res)
}

// minAccuracy is the line and cell accuracy below which a workload's output
// counts as broken. It sits well under the lowest accuracy a full-size run
// reaches (about 0.94 on files) and the test's toy corpora (about 0.90);
// smaller losses are what the accuracy metrics and their bounds catch.
const minAccuracy = 0.85

func accuracyCheck(acc tally) check {
	floor := minAccuracy
	return check{
		name: "line and cell accuracy",
		ok:   acc.lineAccuracy() >= floor && acc.cellAccuracy() >= floor,
		info: fmt.Sprintf("line %.4f over %d lines, cell %.4f over %d cells, floor %.2f",
			acc.lineAccuracy(), acc.lines, acc.cellAccuracy(), acc.cells, floor),
	}
}

// addE2E derives the end-to-end metrics. Rates are the median over passes;
// latencies are percentiles over every sample of the run.
func (r *result) addE2E(run *e2eRun, setupTimes []float64) {
	var ops, mb, allocs, peaks []float64
	for _, p := range run.passes {
		sec := p.busy.Seconds()
		ops = append(ops, float64(p.ops)/sec)
		mb = append(mb, float64(p.bytes)/1e6/sec)
		allocs = append(allocs, float64(p.allocBytes)/float64(p.bytes))
		peaks = append(peaks, float64(p.peakHeap)/1e6)
	}
	lat := append([]float64(nil), run.latencies...)
	sort.Float64s(lat)
	latDist := summarize(lat)
	acc := run.acc
	defs := e2eMetrics
	r.add(defs[0], median(setupTimes), summarize(setupTimes))
	r.add(defs[1], median(ops), summarize(ops))
	r.add(defs[2], median(mb), summarize(mb))
	r.add(defs[3], quantile(lat, 0.5), latDist)
	r.add(defs[4], quantile(lat, tailQuantile[r.cfg.workload]), latDist)
	r.add(defs[5], median(allocs), summarize(allocs))
	r.add(defs[6], median(peaks), summarize(peaks))
	r.add(defs[7], acc.lineAccuracy(), exact(acc.lines, acc.lineAccuracy()))
	r.add(defs[8], acc.cellAccuracy(), exact(acc.cells, acc.cellAccuracy()))
}

// exact is the summary of a value that is counted, not sampled.
func exact(n int, v float64) summary { return summary{N: n, Median: v, Q1: v, Q3: v} }

// traced replays the inputs layer by layer and derives the per-layer
// metrics. For serve the replay's untraced counterpart is a request to a
// fresh service, so the layers are shares of the service's whole cost per
// byte, HTTP and JSON included.
func (st *state) traced(ctx context.Context, e2e *e2eRun, res *result) error {
	fx, err := loadFixture(st.modelJSON)
	if err != nil {
		return err
	}
	if st.serve != nil {
		if err := st.serve.restart(ctx, st.model); err != nil {
			return err
		}
	}
	tr, err := st.replay(ctx, st.cfg.seconds-st.cfg.e2eBudget(), fx, e2e.digests)
	if err != nil {
		return err
	}
	res.attempted += tr.ops
	res.failed += tr.failed
	res.checks = append(res.checks, tr.check)
	res.spans = tr.r.tr.spans
	res.addLayers(tr, e2e.serve)
	return nil
}

// addLayers derives the per-layer metrics from the replay's spans. Times
// are totals over the timed passes, with a summary over those passes;
// allocation counts come from the counting pass.
func (r *result) addLayers(tr *traceRun, sr *serveRun) {
	spans := tr.r.tr.spans
	perPass := map[string][]float64{}
	totalNS := map[string]int64{}
	var total replayPass
	for _, p := range tr.passes {
		ns := map[string]int64{}
		for _, s := range spans[p.lo:p.hi] {
			ns[s.Name] += s.End - s.Start
			totalNS[s.Name] += s.End - s.Start
		}
		for name, v := range timeMetrics(ns, p) {
			perPass[name] = append(perPass[name], v)
		}
		total.bytes += p.bytes
		total.ref += p.ref
	}
	values := timeMetrics(totalNS, total)
	allocs := map[string]uint64{}
	for _, s := range spans[tr.allocPass.lo:tr.allocPass.hi] {
		allocs[s.Name] += s.Allocs
	}
	for _, l := range layers {
		values[l+".allocs_per_mb"] = float64(allocs[l]) / (float64(tr.allocPass.bytes) / 1e6)
	}
	values["forest.line.rows_per_s"] = float64(tr.r.lineRows) / (float64(totalNS[layerLineForest]) / 1e9)
	values["forest.cell.rows_per_s"] = float64(tr.r.cellRows) / (float64(totalNS[layerCellForest]) / 1e9)
	values["dialect.fallback_ratio"] = ratio(tr.r.fallbacks, tr.r.detections)
	if sr != nil {
		values["cache.hit_ratio"] = ratio(sr.hits, sr.ok)
		values["admission.shed_ratio"] = ratio(sr.sheds, len(sr.late))
	}
	for _, def := range layerMetrics {
		dist := exact(len(tr.passes), values[def.name])
		if samples := perPass[def.name]; len(samples) > 0 {
			dist = summarize(samples)
		}
		r.add(def, values[def.name], dist)
	}
}

// timeMetrics derives the time metrics of one replay pass, or of all of
// them: each layer's milliseconds per MB and its share of the paired
// untraced time, the remainder no layer covers as other, and how much
// longer the replayed operations took than the untraced ones.
func timeMetrics(ns map[string]int64, p replayPass) map[string]float64 {
	mb := float64(p.bytes) / 1e6
	ref := ms(p.ref) / mb
	out := map[string]float64{}
	sum := 0.0
	for _, l := range layers {
		v := float64(ns[l]) / 1e6 / mb
		sum += v
		out[l+".ms_per_mb"] = v
		out[l+".share"] = v / ref
	}
	out["other.ms_per_mb"] = ref - sum
	out["other.share"] = (ref - sum) / ref
	out["trace.overhead"] = float64(ns["op"])/1e6/mb/ref - 1
	return out
}

// print writes every check and metric on its own line, then the result
// object as the last line.
func (r *result) print(w io.Writer) error {
	fmt.Fprintf(w, "workload %s, seed %d, %s measured, trace %t\n", r.cfg.workload, r.cfg.seed, r.cfg.seconds, r.cfg.trace)
	for _, c := range r.checks {
		status := "ok"
		if !c.ok {
			status = "FAILED"
		}
		fmt.Fprintf(w, "check %-40s %-6s %s\n", c.name, status, c.info)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "note %s\n", n)
	}
	if !r.cfg.trace {
		fmt.Fprintf(w, "latency_tail_ms is p%g on %s\n", tailQuantile[r.cfg.workload]*100, r.cfg.workload)
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	for _, m := range r.metrics {
		fmt.Fprintf(w, "%-32s %14.6g %-10s n=%d median=%.6g q1=%.6g q3=%.6g\n",
			m.name, m.value, m.unit, m.dist.N, m.dist.Median, m.dist.Q1, m.dist.Q3)
		v := m.value
		if !finite(v) {
			v = 0 // JSON has no NaN; correct is already false
		}
		out.Metrics[m.name] = jsonMetric{Value: v, Unit: m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// writeTrace writes the checks, the metrics with their summaries and the
// replay's spans as one JSON document.
func (r *result) writeTrace(path string) error {
	type traceMetric struct {
		Name  string  `json:"name"`
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
		summary
	}
	type traceCheck struct {
		Name string `json:"name"`
		OK   bool   `json:"ok"`
		Info string `json:"info"`
	}
	doc := struct {
		Workload string        `json:"workload"`
		Seed     int64         `json:"seed"`
		Seconds  float64       `json:"seconds"`
		Trace    bool          `json:"trace"`
		Checks   []traceCheck  `json:"checks"`
		Notes    []string      `json:"notes,omitempty"`
		Metrics  []traceMetric `json:"metrics"`
		Spans    []span        `json:"spans"`
	}{Workload: r.cfg.workload, Seed: r.cfg.seed, Seconds: r.cfg.seconds.Seconds(), Trace: r.cfg.trace, Notes: r.notes, Spans: r.spans}
	for _, c := range r.checks {
		doc.Checks = append(doc.Checks, traceCheck{c.name, c.ok, c.info})
	}
	for _, m := range r.metrics {
		if finite(m.value) {
			doc.Metrics = append(doc.Metrics, traceMetric{m.name, m.value, m.unit, m.dist})
		}
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
