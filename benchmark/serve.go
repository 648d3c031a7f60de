package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"strudel"
	"strudel/internal/serve"
	"strudel/internal/table"
)

// The serve workload's traffic: an open loop of Poisson arrivals at
// serveRate over serveConns keep-alive connections, where a share
// serveRepeat of the requests resends one of the last serveRecent distinct
// bodies, so the service's result cache sees hits at that rate.
const (
	serveRate   = 200
	serveConns  = 2
	serveRecent = 64
	serveRepeat = 0.5
	// serveCheckEvery picks the distinct bodies whose first response is
	// compared with an in-process Annotate of the same bytes.
	serveCheckEvery = 16
)

// serveState is the serve workload's part of a set-up: the running
// service, the request schedule, and the warm-up bodies.
type serveState struct {
	rig   *serveRig
	sched []scheduled
	// fresh is, per distinct body, the first response the open loop got.
	fresh []freshBody
}

// scheduled is one request of the open loop: when it is due, relative to
// the start of the run, and which distinct body it sends.
type scheduled struct {
	at    time.Duration
	input int
}

// makeSchedule draws n Poisson arrivals over span. Given their number, the
// arrival times of a Poisson process are independent uniform draws, so n
// sorted uniforms are a Poisson schedule whose rate is exactly n/span. It
// returns the schedule and how many distinct bodies it sends.
func makeSchedule(seed int64, n int, span time.Duration) ([]scheduled, int) {
	rng := rand.New(rand.NewSource(deriveSeed(seed, "serve/schedule")))
	times := make([]float64, n)
	for i := range times {
		times[i] = rng.Float64()
	}
	sort.Float64s(times)
	out := make([]scheduled, n)
	next := 0
	for i := range out {
		out[i].at = time.Duration(times[i] * float64(span))
		if next > 0 && rng.Float64() < serveRepeat {
			out[i].input = next - 1 - rng.Intn(min(next, serveRecent))
		} else {
			out[i].input = next
			next++
		}
	}
	return out, next
}

func (st *state) setupServe(ctx context.Context) error {
	n := max(1, int(serveRate*st.cfg.e2eBudget().Seconds()))
	sched, distinct := makeSchedule(st.cfg.seed, n, st.cfg.e2eBudget())
	st.inputs = paperFiles(st.cfg.seed, "serve", distinct)
	rig, err := startServe(ctx, st.model)
	if err != nil {
		return err
	}
	st.serve = &serveState{rig: rig, sched: sched}
	for _, in := range paperFiles(st.cfg.seed, "warmup", st.cfg.sizes.serveWarm) {
		status, _, _, err := rig.post(ctx, in.data)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d", status)
		}
		if err != nil {
			_ = rig.close() // the warm-up error is the one to report
			return fmt.Errorf("serve warm-up: %w", err)
		}
	}
	return nil
}

// serveRig is one annotation service on a loopback listener and the
// keep-alive client that drives it.
type serveRig struct {
	url    string
	client *http.Client
	cancel context.CancelFunc
	done   chan error
}

func startServe(ctx context.Context, m *strudel.Model) (*serveRig, error) {
	srv, err := serve.New(serve.Config{Model: m, Workers: serveConns})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	sctx, cancel := context.WithCancel(ctx)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(sctx, ln) }()
	tr := &http.Transport{MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns, DisableCompression: true}
	return &serveRig{
		url:    "http://" + ln.Addr().String() + "/v1/annotate?cells=1",
		client: &http.Client{Transport: tr},
		cancel: cancel,
		done:   done,
	}, nil
}

// close stops the service and waits until it has drained.
func (r *serveRig) close() error {
	r.client.CloseIdleConnections()
	r.cancel()
	return <-r.done
}

func (r *serveRig) post(ctx context.Context, body []byte) (status int, source string, resp []byte, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.url, bytes.NewReader(body))
	if err != nil {
		return 0, "", nil, err
	}
	req.Header.Set("Content-Type", "text/csv")
	res, err := r.client.Do(req)
	if err != nil {
		return 0, "", nil, err
	}
	defer res.Body.Close()
	resp, err = io.ReadAll(res.Body)
	return res.StatusCode, res.Header.Get("X-Strudel-Source"), resp, err
}

// freshBody is what the first successful response for a distinct body
// said: its hash, to compare later responses with, and its classes.
type freshBody struct {
	hash    uint64
	digest  uint64
	acc     tally
	decoded bool
}

func decodeFresh(body []byte, g gold) freshBody {
	fb := freshBody{hash: hashBytes(body)}
	var resp struct {
		Lines []string   `json:"lines"`
		Cells [][]string `json:"cells"`
	}
	if json.Unmarshal(body, &resp) != nil || len(resp.Cells) != len(resp.Lines) {
		return fb
	}
	lines := make([]table.Class, len(resp.Lines))
	cells := make([][]table.Class, len(resp.Cells))
	for r, name := range resp.Lines {
		c, err := table.ParseClass(name)
		if err != nil {
			return fb
		}
		lines[r] = c
		cells[r] = make([]table.Class, len(resp.Cells[r]))
		for i, cname := range resp.Cells[r] {
			if cells[r][i], err = table.ParseClass(cname); err != nil {
				return fb
			}
		}
	}
	fb.digest = digestAll(lines, cells)
	fb.acc.file(g, lines, cells)
	fb.decoded = true
	return fb
}

func hashBytes(b []byte) uint64 {
	h := fnv.New64a()
	_, _ = h.Write(b) // hash.Hash writes never fail
	return h.Sum64()
}

// serveRun holds what only the serve workload measures.
type serveRun struct {
	hits, sheds, ok int
	late            []float64 // ms the generator sent each request after it was due
}

// restart replaces the service with a fresh one, whose result cache is
// empty.
func (sv *serveState) restart(ctx context.Context, m *strudel.Model) error {
	if err := sv.rig.close(); err != nil {
		return fmt.Errorf("stop service: %w", err)
	}
	rig, err := startServe(ctx, m)
	if err != nil {
		return err
	}
	sv.rig = rig
	return nil
}

// measureServe runs the open loop over the whole schedule, which set-up
// drew for the measurement's budget. Each request is timed from when it was
// due, so a stall also counts against the requests queued behind it.
func (st *state) measureServe(ctx context.Context) (*e2eRun, error) {
	sched := st.serve.sched
	n := len(sched)
	type outcome struct {
		status int
		source string
		hash   uint64
		done   time.Duration
		err    error
	}
	outs := make([]outcome, n)
	claimed := make([]atomic.Bool, len(st.inputs))
	fresh := make([]freshBody, len(st.inputs))
	sr := &serveRun{late: make([]float64, 0, n)}
	run := &e2eRun{digests: make([]uint64, len(st.inputs)), serve: sr}
	peak := startHeapPeak()
	defer peak.stop()
	runtime.GC()
	peak.take()

	// The queue holds the whole schedule: an open-loop generator never
	// waits for a free connection.
	queue := make(chan int, n)
	var wg sync.WaitGroup
	epoch := time.Now()
	for w := 0; w < serveConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				s := sched[i]
				in := st.inputs[s.input]
				status, source, body, err := st.serve.rig.post(ctx, in.data)
				o := outcome{status: status, source: source, err: err, done: time.Since(epoch)}
				if err == nil && status == http.StatusOK {
					o.hash = hashBytes(body)
					if claimed[s.input].CompareAndSwap(false, true) {
						fresh[s.input] = decodeFresh(body, in.gold)
					}
				}
				outs[i] = o
			}
		}()
	}

	// The generator closes a pass every serveRate requests (about a
	// second of schedule) to sample allocations and the heap peak.
	var ps passStats
	passStart := time.Duration(0)
	a0 := allocatedBytes()
	endPass := func(now time.Duration) {
		a1 := allocatedBytes()
		ps.allocBytes, a0 = a1-a0, a1
		ps.busy, passStart = now-passStart, now
		ps.peakHeap = peak.take()
		run.passes = append(run.passes, ps)
		ps = passStats{}
	}
	for i, s := range sched {
		if ctx.Err() != nil {
			break
		}
		if i > 0 && i%serveRate == 0 {
			endPass(time.Since(epoch))
		}
		if d := s.at - time.Since(epoch); d > 0 {
			time.Sleep(d)
		}
		sr.late = append(sr.late, ms(time.Since(epoch)-s.at))
		ps.ops++
		ps.bytes += int64(len(st.inputs[s.input].data))
		queue <- i
	}
	close(queue)
	wg.Wait()
	endPass(time.Since(epoch))
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	mismatches := 0
	for i, o := range outs {
		s := sched[i]
		run.attempted++
		if o.err != nil || o.status != http.StatusOK {
			run.failed++
			if o.status == http.StatusTooManyRequests {
				sr.sheds++
			}
			continue
		}
		sr.ok++
		run.latencies = append(run.latencies, ms(o.done-s.at))
		if o.source != "fresh" {
			sr.hits++
		}
		if o.hash != fresh[s.input].hash {
			mismatches++
		}
	}
	for i := range fresh {
		run.digests[i] = fresh[i].digest
		run.acc.addTally(fresh[i].acc)
	}
	run.checks = append(run.checks, check{
		name: "repeated requests get identical bodies",
		ok:   mismatches == 0,
		info: fmt.Sprintf("%d responses, %d differ from the first response for their body", sr.ok, mismatches),
	})
	run.checks = append(run.checks, st.checkInProcess(fresh, claimed))
	st.serve.fresh = fresh
	return run, nil
}

// checkInProcess compares the first response for every serveCheckEvery-th
// distinct body with an in-process LoadBytes and Annotate of its bytes.
func (st *state) checkInProcess(fresh []freshBody, claimed []atomic.Bool) check {
	checked, wrong := 0, 0
	for i := 0; i < len(st.inputs); i += serveCheckEvery {
		if !claimed[i].Load() {
			continue
		}
		checked++
		t, _, err := strudel.LoadBytes(st.inputs[i].data, strudel.LoadOptions{})
		if err != nil || !fresh[i].decoded {
			wrong++
			continue
		}
		ann := st.model.Annotate(t)
		if digestAll(ann.Lines, ann.Cells) != fresh[i].digest {
			wrong++
		}
	}
	return check{
		name: "responses match in-process Annotate",
		ok:   checked > 0 && wrong == 0,
		info: fmt.Sprintf("%d bodies checked, %d differ", checked, wrong),
	}
}
