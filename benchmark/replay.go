package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"time"

	"strudel"
	"strudel/internal/dialect"
	"strudel/internal/features"
	"strudel/internal/ingest"
	"strudel/internal/ml"
	"strudel/internal/ml/forest"
	"strudel/internal/pipeline"
	"strudel/internal/table"
)

// The pipeline layers the traced replay times, in pipeline order.
const (
	layerIngest       = "ingest"
	layerDetect       = "dialect.detect"
	layerSplit        = "dialect.split"
	layerBuild        = "table.build"
	layerGrids        = "features.grids"
	layerLineFeatures = "features.line"
	layerCellFeatures = "features.cell"
	layerLineForest   = "forest.line"
	layerCellForest   = "forest.cell"
)

var layers = []string{
	layerIngest, layerDetect, layerSplit, layerBuild, layerGrids,
	layerLineFeatures, layerLineForest, layerCellFeatures, layerCellForest,
}

// fixture is the saved model as the replay sees it: the two forests,
// decoded from the model file and compiled, and the feature options they
// were trained with. Decoding the file here, instead of calling the model's
// methods, keeps the replay independent of the classifier package's method
// set.
type fixture struct {
	line, cell *forest.Compiled
	lineOpts   features.LineOptions
	cellOpts   features.CellOptions
}

// loadFixture decodes a model file written by Model.Save(FormatJSON). It
// refuses models whose prediction the replay does not mirror: feature
// masks, a column model, or post-processing.
func loadFixture(raw []byte) (*fixture, error) {
	var mf struct {
		Line *struct {
			Forest *forest.Forest
			Opts   features.LineOptions
			Mask   []int
		} `json:"line"`
		Cell *struct {
			Forest      *forest.Forest
			Opts        features.CellOptions
			Mask        []int
			Column      json.RawMessage
			PostProcess bool
		} `json:"cell"`
	}
	if err := json.Unmarshal(raw, &mf); err != nil {
		return nil, fmt.Errorf("decode fixture model: %w", err)
	}
	switch {
	case mf.Line == nil || mf.Line.Forest == nil || mf.Cell == nil || mf.Cell.Forest == nil:
		return nil, errors.New("fixture model: the replay needs both a line and a cell forest")
	case mf.Line.Mask != nil || mf.Cell.Mask != nil:
		return nil, errors.New("fixture model: feature masks are not replayed")
	case len(mf.Cell.Column) > 0 && string(mf.Cell.Column) != "null":
		return nil, errors.New("fixture model: a column model is not replayed")
	case mf.Cell.PostProcess:
		return nil, errors.New("fixture model: post-processing is not replayed")
	}
	fx := &fixture{lineOpts: mf.Line.Opts, cellOpts: mf.Cell.Opts}
	var err error
	if fx.line, err = compile(mf.Line.Forest); err != nil {
		return nil, fmt.Errorf("fixture line forest: %w", err)
	}
	if fx.cell, err = compile(mf.Cell.Forest); err != nil {
		return nil, fmt.Errorf("fixture cell forest: %w", err)
	}
	return fx, nil
}

func compile(f *forest.Forest) (*forest.Compiled, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return f.Compile()
}

// span is one timed interval of the replay. Layer spans are children of
// the span of the operation (one file, or one stream) they belong to; they
// never nest, so a layer span's duration is its self time.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Allocs uint64 `json:"allocs,omitempty"`
	Bytes  int64  `json:"bytes,omitempty"`
}

// tracer keeps the replay's spans in memory. With countAllocs set it reads
// the allocation count around every layer call, outside the timed
// interval. The read stops the world to flush the per-processor caches,
// which makes the count exact but disturbs the timing, so the replay counts
// allocations in a pass of its own whose times it discards.
type tracer struct {
	epoch       time.Time
	spans       []span
	parent      int
	countAllocs bool
	ms          runtime.MemStats
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16), parent: -1}
}

func (t *tracer) mallocs() uint64 {
	if !t.countAllocs {
		return 0
	}
	runtime.ReadMemStats(&t.ms)
	return t.ms.Mallocs
}

func (t *tracer) beginOp(op int, bytes int) {
	t.parent = len(t.spans)
	t.spans = append(t.spans, span{Name: "op", Op: op, Parent: -1, Bytes: int64(bytes), Start: int64(time.Since(t.epoch))})
}

func (t *tracer) endOp() {
	t.spans[t.parent].End = int64(time.Since(t.epoch))
	t.parent = -1
}

// layer runs fn as one span of the named layer.
func (t *tracer) layer(name string, fn func()) {
	a0 := t.mallocs()
	start := time.Since(t.epoch)
	fn()
	end := time.Since(t.epoch)
	a1 := t.mallocs()
	op := -1
	if t.parent >= 0 {
		op = t.spans[t.parent].Op
	}
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: t.parent, Start: int64(start), End: int64(end), Allocs: a1 - a0})
}

// replayer runs inputs through each layer's exported entry point, in the
// order and with the options the strudel loaders and annotators use, so its
// classes equal the public API's.
type replayer struct {
	fx *fixture
	tr *tracer
	m  ml.Matrix // the staging block, reused like the classifier's pooled one

	detections, fallbacks int
	lineRows, cellRows    int64
}

// detect is the loaders' dialect choice: the most consistent dialect,
// unless its score falls under the confidence floor.
func (r *replayer) detect(text string) (dialect.Dialect, error) {
	det, err := dialect.DetectBest(text)
	if err != nil {
		return dialect.Dialect{}, err
	}
	r.detections++
	if det.Score < strudel.DefaultMinDialectScore {
		r.fallbacks++
		return dialect.Default, nil
	}
	return det.Dialect, nil
}

// file replays LoadBytes followed by Annotate.
func (r *replayer) file(op int, data []byte) (lines []table.Class, cells [][]table.Class, err error) {
	r.tr.beginOp(op, len(data))
	defer r.tr.endOp()
	var res ingest.Result
	r.tr.layer(layerIngest, func() { res, err = ingest.Normalize(data, ingest.Options{}) })
	if err != nil {
		return nil, nil, err
	}
	var d dialect.Dialect
	r.tr.layer(layerDetect, func() { d, err = r.detect(res.Text) })
	if err != nil {
		return nil, nil, err
	}
	var rows [][]string
	r.tr.layer(layerSplit, func() { rows, _ = dialect.SplitLimit(res.Text, d, ingest.DefaultMaxCellsPerLine) })
	var t *table.Table
	r.tr.layer(layerBuild, func() { t = table.FromRows(rows).Crop() })
	lines, cells = r.classify(t)
	return lines, cells, nil
}

// classify replays Model.Annotate's classification of one table: the shared
// feature grids, Strudel^L, then Strudel^C on top of the line
// probabilities.
func (r *replayer) classify(t *table.Table) ([]table.Class, [][]table.Class) {
	sh := features.NewShared(t)
	r.tr.layer(layerGrids, func() {
		sh.TypeGrid()
		sh.BlockSizes()
		sh.Derived(r.fx.lineOpts.Derived)
		sh.Derived(r.fx.cellOpts.Derived)
	})
	var lf [][]float64
	r.tr.layer(layerLineFeatures, func() { lf = sh.LineFeatures(r.fx.lineOpts) })
	var probs [][]float64
	var lines []table.Class
	r.tr.layer(layerLineForest, func() { probs, lines = r.predictLines(t, lf) })
	var cf [][][]float64
	r.tr.layer(layerCellFeatures, func() { cf = sh.CellFeatures(probs, r.fx.cellOpts) })
	var cells [][]table.Class
	r.tr.layer(layerCellForest, func() { cells = r.predictCells(t, cf) })
	return lines, cells
}

// predictLines replays Strudel^L's prediction: the non-empty lines'
// feature rows go through one PredictProbaMatrix call, empty lines get a
// zero probability vector and ClassEmpty.
func (r *replayer) predictLines(t *table.Table, lf [][]float64) ([][]float64, []table.Class) {
	h := t.Height()
	probs := make([][]float64, h)
	batch := make([][]float64, 0, h)
	keep := make([]int, 0, h)
	for row := 0; row < h; row++ {
		if t.IsEmptyLine(row) {
			probs[row] = make([]float64, table.NumClasses)
			continue
		}
		batch = append(batch, lf[row])
		keep = append(keep, row)
	}
	for i, p := range r.predictRows(r.fx.line, batch) {
		probs[keep[i]] = p
	}
	lines := make([]table.Class, h)
	for row := 0; row < h; row++ {
		if !t.IsEmptyLine(row) {
			lines[row] = table.ClassAt(argMax(probs[row]))
		}
	}
	r.lineRows += int64(len(batch))
	return probs, lines
}

// predictCells is predictLines for Strudel^C over the non-empty cells,
// building the same per-cell probability grid the classifier does.
func (r *replayer) predictCells(t *table.Table, cf [][][]float64) [][]table.Class {
	h, w := t.Height(), t.Width()
	probs := make([][][]float64, h)
	batch := make([][]float64, 0, h*w)
	type pos struct{ r, c int }
	keep := make([]pos, 0, h*w)
	for row := 0; row < h; row++ {
		probs[row] = make([][]float64, w)
		for c := 0; c < w; c++ {
			if t.IsEmptyCell(row, c) {
				probs[row][c] = make([]float64, table.NumClasses)
				continue
			}
			batch = append(batch, cf[row][c])
			keep = append(keep, pos{row, c})
		}
	}
	for i, p := range r.predictRows(r.fx.cell, batch) {
		probs[keep[i].r][keep[i].c] = p
	}
	cells := make([][]table.Class, h)
	for row := 0; row < h; row++ {
		cells[row] = make([]table.Class, w)
		for c := 0; c < w; c++ {
			if !t.IsEmptyCell(row, c) {
				cells[row][c] = table.ClassAt(argMax(probs[row][c]))
			}
		}
	}
	r.cellRows += int64(len(batch))
	return cells
}

// predictRows stages feature rows into the reused matrix and classifies
// them in one PredictProbaMatrix call, returning per-row views of one
// probability slab.
func (r *replayer) predictRows(p *forest.Compiled, rows [][]float64) [][]float64 {
	out := make([][]float64, len(rows))
	if len(rows) == 0 {
		return out
	}
	r.m.Reset(len(rows), len(rows[0]))
	r.m.FillRows(rows)
	k := p.Classes()
	slab := make([]float64, len(rows)*k)
	p.PredictProbaMatrix(&r.m, slab)
	for i := range out {
		out[i] = slab[i*k : (i+1)*k : (i+1)*k]
	}
	return out
}

func argMax(v []float64) int {
	best := 0
	for i := 1; i < len(v); i++ {
		if v[i] > v[best] {
			best = i
		}
	}
	return best
}

// scanBatch is how many normalized lines one ingest span of the stream
// replay scans; batching keeps clock reads off the per-line path.
const scanBatch = 1024

// stream replays AnnotateStream with the default options: dialect detection
// on a bounded prefix, incremental splitting, and classification window by
// window. emit receives every annotated line in order, like the public
// callback.
func (r *replayer) stream(op int, data []byte, emit func(row int, cls table.Class, cells []table.Class)) error {
	r.tr.beginOp(op, len(data))
	defer r.tr.endOp()
	w, margin := strudel.DefaultStreamWindowLines, strudel.DefaultStreamMarginLines
	sc := ingest.NewScanner(bytes.NewReader(data), ingest.Options{})

	// Phase 1: the prefix dialect detection sees, plus one probe line that
	// tells whether the input ended inside the prefix.
	var prefix []string
	atEOF := false
	r.tr.layer(layerIngest, func() {
		size := 0
		for size < strudel.DefaultDialectSniffBytes && sc.Scan() {
			prefix = append(prefix, sc.Line())
			size += len(sc.Line()) + 1
		}
		if atEOF = !sc.Scan(); !atEOF {
			prefix = append(prefix, sc.Line())
		}
	})
	if err := sc.Err(); err != nil {
		return err
	}
	sniff := prefix
	if !atEOF {
		sniff = prefix[:len(prefix)-1]
	}
	var d dialect.Dialect
	var err error
	r.tr.layer(layerDetect, func() { d, err = r.detect(joinLines(sniff, !atEOF || sc.FinalNewline())) })
	if err != nil {
		return err
	}

	// Phase 2: split, window, classify, emit.
	sp := dialect.NewSplitter(d, ingest.DefaultMaxCellsPerLine)
	win := pipeline.NewWindow(w + 2*margin + 2)
	emitted, windows, lastNonEmpty, started := 0, 0, -1, false
	emitRange := func(t *table.Table, tblBase, lo, hi int) {
		lines, cells := r.classify(t)
		for abs := lo; abs < hi; abs++ {
			emit(abs, lines[abs-tblBase], cells[abs-tblBase])
		}
		emitted = hi
		windows++
	}
	accept := func(row []string) {
		empty := rowIsEmpty(row)
		if !started && empty {
			return
		}
		started = true
		if !empty {
			lastNonEmpty = win.End()
		}
		win.Push(row)
		if win.End()-emitted >= w+margin {
			var t *table.Table
			r.tr.layer(layerBuild, func() { t = table.FromRows(win.Slice(win.Base(), win.End())) })
			emitRange(t, win.Base(), emitted, emitted+w)
			win.EvictTo(emitted - margin)
		}
	}
	var rows [][]string
	drain := func() {
		for row, ok := sp.Next(); ok; row, ok = sp.Next() {
			rows = append(rows, row)
		}
	}
	// Every line but the last is written with its newline; whether the last
	// one has a newline is known only at the end, hence the one-line lag.
	var prev string
	havePrev := false
	feed := func(batch []string) {
		rows = rows[:0]
		r.tr.layer(layerSplit, func() {
			for _, line := range batch {
				if havePrev {
					sp.Write(prev)
					sp.Write("\n")
				}
				prev, havePrev = line, true
				drain()
			}
		})
		for _, row := range rows {
			accept(row)
		}
	}
	feed(prefix)
	batch := make([]string, 0, scanBatch)
	for {
		batch = batch[:0]
		r.tr.layer(layerIngest, func() {
			for len(batch) < scanBatch && sc.Scan() {
				batch = append(batch, sc.Line())
			}
		})
		if len(batch) == 0 {
			break
		}
		feed(batch)
	}
	if err := sc.Err(); err != nil {
		return err
	}
	rows = rows[:0]
	r.tr.layer(layerSplit, func() {
		if havePrev {
			sp.Write(prev)
			if sc.FinalNewline() {
				sp.Write("\n")
			}
		}
		sp.Flush()
		drain()
	})
	for _, row := range rows {
		accept(row)
	}

	var t *table.Table
	if windows == 0 {
		// The whole input fit in one window: the in-memory path, crop
		// included.
		r.tr.layer(layerBuild, func() { t = table.FromRows(win.Slice(win.Base(), win.End())).Crop() })
		emitRange(t, 0, 0, t.Height())
		return nil
	}
	if end := lastNonEmpty + 1; end > emitted {
		r.tr.layer(layerBuild, func() { t = table.FromRows(win.Slice(win.Base(), end)) })
		emitRange(t, win.Base(), emitted, end)
	}
	return nil
}

func rowIsEmpty(row []string) bool {
	for _, c := range row {
		if !table.IsEmpty(c) {
			return false
		}
	}
	return true
}

// joinLines rebuilds the normalized text of a line prefix, the text the
// streaming path hands to dialect detection.
func joinLines(lines []string, finalNL bool) string {
	n := 0
	for _, l := range lines {
		n += len(l) + 1
	}
	b := make([]byte, 0, n)
	for i, l := range lines {
		if i > 0 {
			b = append(b, '\n')
		}
		b = append(b, l...)
	}
	if finalNL {
		b = append(b, '\n')
	}
	return string(b)
}
