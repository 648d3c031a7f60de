package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"strudel"
	"strudel/internal/ingest"
)

// toySizes runs every workload's shapes at a size the test suite affords;
// the stream still spans more than one window.
var toySizes = sizes{
	files:         20,
	mendeleyFiles: 2,
	sizedFiles:    1,
	sizedBytes:    64 << 10,
	streamBytes:   400 << 10,
	warmBytes:     16 << 10,
	serveWarm:     2,
}

type declaredMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestDeclaredMetricsMatchCode guards BENCHMARK.json against drift: the
// workloads, and the names and units of both metric lists, are the ones
// the command prints.
func TestDeclaredMetricsMatchCode(t *testing.T) {
	bf := readBenchmarkFile(t)
	var workloads []string
	for _, w := range bf.Workloads {
		workloads = append(workloads, w.Name)
		if _, ok := procs[w.Name]; !ok {
			t.Errorf("workload %q is declared but not implemented", w.Name)
		}
	}
	if len(workloads) != len(procs) {
		t.Errorf("declared workloads %v, implemented %d", workloads, len(procs))
	}
	compare := func(kind string, declared []declaredMetric, code []metricDef) {
		if len(declared) != len(code) {
			t.Errorf("%s: %d declared, %d in code", kind, len(declared), len(code))
		}
		for i := 0; i < min(len(declared), len(code)); i++ {
			if declared[i].Name != code[i].name || declared[i].Unit != code[i].unit {
				t.Errorf("%s[%d]: declared %s (%s), code %s (%s)", kind, i, declared[i].Name, declared[i].Unit, code[i].name, code[i].unit)
			}
			if b := declared[i].Better; b != "lower" && b != "higher" {
				t.Errorf("%s: better %q", declared[i].Name, b)
			}
		}
	}
	compare("end_to_end", bf.EndToEnd, e2eMetrics)
	compare("per_layer", bf.PerLayer, layerMetrics)
	for _, l := range layers {
		found := false
		for _, m := range bf.PerLayer {
			found = found || strings.HasPrefix(m.Name, l+".")
		}
		if !found {
			t.Errorf("layer %s has no declared metric", l)
		}
	}
}

// TestWorkloadsToyScale runs all four workloads, untraced and traced, at
// toy scale: every declared metric is printed exactly once with its unit
// and a finite value, every output check passes, and the traced replay's
// classes equal the untraced run's.
func TestWorkloadsToyScale(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, w := range bf.Workloads {
		for _, trace := range []bool{false, true} {
			name := w.Name
			if trace {
				name += "/trace"
			}
			t.Run(name, func(t *testing.T) {
				cfg := config{workload: w.Name, seed: 7, seconds: 200 * time.Millisecond, trace: trace, setups: 1, sizes: toySizes}
				res, err := run(context.Background(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				declared := bf.EndToEnd
				if trace {
					declared = bf.PerLayer
				}
				checkOutput(t, res, declared)
				replayChecked := false
				for _, c := range res.checks {
					if !c.ok {
						t.Errorf("check %q failed: %s", c.name, c.info)
					}
					replayChecked = replayChecked || c.name == "traced replay equals the untraced run"
				}
				if trace && !replayChecked {
					t.Error("traced run did not compare the replay with the untraced run")
				}
				if trace {
					checkTraceFile(t, res)
				}
			})
		}
	}
}

// TestSniffText checks that set-up screens the prefix AnnotateStream's
// dialect detection reads: the scanner's lines up to the one that reaches
// DefaultDialectSniffBytes, each with its newline.
func TestSniffText(t *testing.T) {
	in := stacked(schemaMendeley(), 18, "stream", 3*strudel.DefaultDialectSniffBytes)
	for _, data := range [][]byte{in.data, in.data[:strudel.DefaultDialectSniffBytes/2]} {
		var lines []string
		size := 0
		sc := ingest.NewScanner(bytes.NewReader(data), ingest.Options{})
		for size < strudel.DefaultDialectSniffBytes && sc.Scan() {
			lines = append(lines, sc.Line())
			size += len(sc.Line()) + 1
		}
		atEOF := !sc.Scan()
		want := joinLines(lines, !atEOF || sc.FinalNewline())
		if got := sniffText(data); got != want {
			t.Errorf("%d bytes: sniffText gives %d bytes, the scanner's prefix is %d", len(data), len(got), len(want))
		}
	}
}

func checkOutput(t *testing.T, res *result, declared []declaredMetric) {
	t.Helper()
	var out bytes.Buffer
	if err := res.print(&out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not the result object: %v", err)
	}
	if !last.Correct || last.Attempted < 1 || last.Failed != 0 {
		t.Errorf("correct=%t attempted=%d failed=%d", last.Correct, last.Attempted, last.Failed)
	}
	if len(last.Metrics) != len(declared) {
		t.Errorf("printed %d metrics, declared %d", len(last.Metrics), len(declared))
	}
	for _, d := range declared {
		m, ok := last.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("%s missing from the result object", d.Name)
		case m.Value == nil || math.IsNaN(*m.Value) || math.IsInf(*m.Value, 0):
			t.Errorf("%s has no finite value", d.Name)
		case m.Unit != d.Unit:
			t.Errorf("%s unit %q, declared %q", d.Name, m.Unit, d.Unit)
		}
		printed := 0
		for _, l := range lines[:len(lines)-1] {
			if f := strings.Fields(l); len(f) >= 3 && f[0] == d.Name && f[2] == d.Unit {
				printed++
			}
		}
		if printed != 1 {
			t.Errorf("%s printed on %d lines, want 1", d.Name, printed)
		}
	}
}

func checkTraceFile(t *testing.T, res *result) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := res.writeTrace(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Metrics []struct {
			Name string `json:"name"`
			N    int    `json:"n"`
		} `json:"metrics"`
		Spans []span `json:"spans"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Metrics) != len(res.metrics) || len(doc.Spans) == 0 {
		t.Fatalf("trace file has %d metrics and %d spans", len(doc.Metrics), len(doc.Spans))
	}
	seen := map[string]bool{}
	for _, s := range doc.Spans {
		seen[s.Name] = true
		if s.End < s.Start {
			t.Fatalf("span %+v ends before it starts", s)
		}
	}
	for _, l := range layers {
		if !seen[l] {
			t.Errorf("no %s span in the trace", l)
		}
	}
}
