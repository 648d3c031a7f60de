package main

import (
	"bytes"
	"fmt"
	"hash/fnv"

	"strudel"
	"strudel/internal/datagen"
	"strudel/internal/dialect"
	"strudel/internal/table"
)

// input is one raw file a workload annotates, with the classes the
// generator assigned to its lines and cells.
type input struct {
	data []byte
	gold gold
}

// gold holds the generator's labels, one row per line of the rendered text.
type gold struct {
	lines []table.Class
	cells [][]table.Class
}

// sizes fixes how much input each workload generates. fullSizes is what the
// benchmark runs; the test runs a toy scale of the same shapes.
type sizes struct {
	files         int // files: files of the paper profiles
	mendeleyFiles int // large: single Mendeley-profile files
	sizedFiles    int // large: stacked files of sizedBytes each
	sizedBytes    int
	streamBytes   int // stream: one stacked stream
	warmBytes     int // warm-up: inputs annotated before timing
	serveWarm     int // serve: warm-up requests
}

var fullSizes = sizes{
	files:         4 * 310,
	mendeleyFiles: 40,
	sizedFiles:    4,
	sizedBytes:    1 << 20,
	streamBytes:   8 << 20,
	warmBytes:     1 << 20,
	serveWarm:     32,
}

// schemaMendeley is the Mendeley profile with one fixed column count: the
// stacked inputs repeat one table schema, as an export appended to period
// after period does. Stacked tables of varying widths defeat dialect
// detection (it picks ':' or ' ' over ','), which would make the parse, and
// so the measured work, depend on the seed.
func schemaMendeley() datagen.Profile {
	p := datagen.Mendeley()
	p.Cols = [2]int{8, 8}
	return p
}

// paperProfiles are the corpora the files and serve workloads draw from:
// the small verbose files of the paper's evaluation (Mendeley, which is
// tall and almost all data, has its own workload).
func paperProfiles() []datagen.Profile {
	return []datagen.Profile{datagen.GovUK(), datagen.SAUS(), datagen.CIUS(), datagen.DeEx(), datagen.Troy()}
}

// deriveSeed maps the workload seed and a name to a generator seed. It never
// returns a profile's default seed: the default seeds generated the corpus
// the fixture model was trained on, and inputs must be unseen.
func deriveSeed(seed int64, name string) int64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name)) // hash.Hash writes never fail
	x := uint64(seed)*0x9E3779B97F4A7C15 ^ h.Sum64()
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	s := int64(x >> 1)
	for _, p := range datagen.Profiles() {
		if s == p.Seed {
			s++
		}
	}
	return s
}

// corpus generates n files of profile p from a seed derived from seed and tag.
func corpus(p datagen.Profile, seed int64, tag string, n int) []*table.Table {
	p.Seed = deriveSeed(seed, p.Name+"/"+tag)
	p.Files = n
	return datagen.Generate(p).Files
}

// renderFile turns a generated table into the bytes of a comma-separated
// file, keeping its labels.
func renderFile(t *table.Table) input {
	rows := make([][]string, t.Height())
	for r := range rows {
		rows[r] = t.Row(r)
	}
	return input{
		data: []byte(dialect.Join(rows, dialect.Default)),
		gold: gold{lines: t.LineClasses, cells: t.CellClasses},
	}
}

// stacked renders files of profile p one after another, separated by blank
// lines, until the text holds at least target bytes: the shape
// datagen.WriteSized writes, with the labels of every line kept.
func stacked(p datagen.Profile, seed int64, tag string, target int) input {
	for n := target/(24<<10) + 4; ; n *= 2 {
		out := input{data: make([]byte, 0, target+target/8)}
		for i, t := range corpus(p, seed, tag, n) {
			if len(out.data) >= target {
				break
			}
			if i > 0 {
				out.data = append(out.data, '\n')
				out.gold.lines = append(out.gold.lines, table.ClassEmpty)
				out.gold.cells = append(out.gold.cells, nil)
			}
			f := renderFile(t)
			out.data = append(out.data, f.data...)
			out.gold.lines = append(out.gold.lines, f.gold.lines...)
			out.gold.cells = append(out.gold.cells, f.gold.cells...)
		}
		if len(out.data) >= target {
			return out
		}
	}
}

// makeInputs generates the inputs of the files, large and stream workloads
// from the seed; serve draws its bodies in setupServe.
func makeInputs(workload string, seed int64, sz sizes) ([]input, error) {
	var out []input
	switch workload {
	case "files":
		out = paperFiles(seed, "files", sz.files)
	case "large":
		// The single files' data rows step evenly through the profile's
		// range and their column counts cycle through its range in a
		// fixed shuffled order, so every seed has the same size mix and
		// only the content varies.
		p := datagen.Mendeley()
		rlo, rhi := p.DataRows[0], p.DataRows[1]
		clo, chi := p.Cols[0], p.Cols[1]
		for i := 0; i < sz.mendeleyFiles; i++ {
			rows := rlo + i*(rhi-rlo)/max(1, sz.mendeleyFiles-1)
			cols := clo + 7*i%(chi-clo+1)
			p.DataRows, p.Cols = [2]int{rows, rows}, [2]int{cols, cols}
			out = append(out, renderFile(corpus(p, seed, fmt.Sprintf("large%d", i), 1)[0]))
		}
		for i := 0; i < sz.sizedFiles; i++ {
			out = append(out, stacked(schemaMendeley(), seed, fmt.Sprintf("sized%d", i), sz.sizedBytes))
		}
	case "stream":
		in, err := commaStream(seed, sz.streamBytes)
		if err != nil {
			return nil, err
		}
		out = append(out, in)
	default:
		return nil, fmt.Errorf("unknown workload %q (want files, large or stream)", workload)
	}
	return out, nil
}

// minSniffMargin is how far the comma dialect must lead every other
// delimiter on the stream's detection prefix. Near-ties flip with the seed,
// and with any change to the scoring's arithmetic.
const minSniffMargin = 0.05

// commaStream returns a stacked stream of at least target bytes whose
// detection prefix picks the comma dialect it is written in, by at least
// minSniffMargin. On 64 KiB of stacked Mendeley text ':' can score higher
// (seeds 18, 64 and 149 of the first 200): every line is then parsed at
// the colons, the work measured depends on the seed, and cell accuracy falls
// to about 0.1. Such a stream is drawn again from the next tag; a seed whose
// first stream passes keeps it.
func commaStream(seed int64, target int) (input, error) {
	const tries = 20
	for k := 0; k < tries; k++ {
		tag := "stream"
		if k > 0 {
			tag = fmt.Sprintf("stream%d", k)
		}
		in := stacked(schemaMendeley(), seed, tag, target)
		det, err := dialect.DetectBest(sniffText(in.data))
		if err != nil {
			return input{}, err
		}
		if det.Dialect == dialect.Default && det.Margin >= minSniffMargin {
			return in, nil
		}
	}
	return input{}, fmt.Errorf("no stream for seed %d in %d tries is detected as comma-separated", seed, tries)
}

// sniffText is the prefix of a newline-separated ASCII text that
// AnnotateStream hands to dialect detection: whole lines, newlines
// included, up to the first line that reaches DefaultDialectSniffBytes.
func sniffText(data []byte) string {
	n := strudel.DefaultDialectSniffBytes
	if len(data) <= n {
		return string(data)
	}
	nl := bytes.IndexByte(data[n-1:], '\n')
	if nl < 0 {
		return string(data)
	}
	return string(data[:n+nl])
}

// paperFiles returns n files of the paper profiles. They come as whole
// corpora at the profiles' default sizes, each from its own seed, so that a
// profile built from a few templates (CIUS) brings fresh templates with
// every corpus instead of repeating one draw of them across all n files;
// the corpus mix, and so the cost of a pass, then varies little from seed
// to seed. Within a corpus consecutive files come from different profiles.
func paperFiles(seed int64, tag string, n int) []input {
	profiles := paperProfiles()
	out := make([]input, 0, n)
	for k := 0; len(out) < n; k++ {
		sets := make([][]*table.Table, len(profiles))
		most := 0
		for i, p := range profiles {
			sets[i] = corpus(p, seed, fmt.Sprintf("%s%d", tag, k), p.Files)
			most = max(most, len(sets[i]))
		}
		for j := 0; j < most; j++ {
			for _, set := range sets {
				if j < len(set) && len(out) < n {
					out = append(out, renderFile(set[j]))
				}
			}
		}
	}
	return out
}

// digester folds predicted classes into an FNV-1a hash, line by line, so
// two runs' outputs compare by one number.
type digester uint64

func newDigester() digester { return 14695981039346656037 }

func (d *digester) add(b byte) {
	*d ^= digester(b)
	*d *= 1099511628211
}

func (d *digester) line(cls table.Class, cells []table.Class) {
	d.add(byte(cls))
	for _, c := range cells {
		d.add(byte(c))
	}
	d.add(0xff)
}

func digestAll(lines []table.Class, cells [][]table.Class) uint64 {
	d := newDigester()
	for r, cls := range lines {
		d.line(cls, cells[r])
	}
	return uint64(d)
}

// tally counts predictions that match the gold labels, over the non-empty
// lines and cells of the gold grid. A gold element the prediction does not
// cover counts as a miss.
type tally struct {
	lineHits, lines, cellHits, cells int
}

func (t *tally) row(g gold, r int, cls table.Class, cells []table.Class) {
	if r >= len(g.lines) {
		return
	}
	if gl := g.lines[r]; gl != table.ClassEmpty {
		t.lines++
		if gl == cls {
			t.lineHits++
		}
	}
	for c, gc := range g.cells[r] {
		if gc == table.ClassEmpty {
			continue
		}
		t.cells++
		if c < len(cells) && cells[c] == gc {
			t.cellHits++
		}
	}
}

// missing counts the gold rows from row from on as misses.
func (t *tally) missing(g gold, from int) {
	for r := from; r < len(g.lines); r++ {
		t.row(g, r, table.ClassEmpty, nil)
	}
}

func (t *tally) file(g gold, lines []table.Class, cells [][]table.Class) {
	for r, cls := range lines {
		t.row(g, r, cls, cells[r])
	}
	t.missing(g, len(lines))
}

func (t *tally) addTally(o tally) {
	t.lineHits += o.lineHits
	t.lines += o.lines
	t.cellHits += o.cellHits
	t.cells += o.cells
}

func (t tally) lineAccuracy() float64 { return ratio(t.lineHits, t.lines) }
func (t tally) cellAccuracy() float64 { return ratio(t.cellHits, t.cells) }

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
