package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/graph"
	"repro/internal/incr"
	"repro/internal/metrics"
	"repro/internal/server"
	"repro/scc"
)

// visibleWait bounds how long after the window the prober keeps
// waiting for acknowledged batches to become visible.
const visibleWait = 10 * time.Second

// probeTick is the visibility probe's polling interval.
const probeTick = 200 * time.Microsecond

// pending is an acknowledged batch not yet seen in a snapshot.
type pending struct {
	j   int
	due time.Time
}

// sleepUntil waits for t; a generator that is already late returns at
// once and sends behind schedule.
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// postUpdate sends one batch without ?wait=1 and returns the status.
func postUpdate(c *http.Client, base string, body []byte) (int, error) {
	resp, err := c.Post(base+"/update", "text/plain", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, err
}

// visible reports whether a snapshot has merged the batch's markers.
func visible(sn *server.Snapshot, bt batch) bool {
	ca := sn.ComponentOf(int64(bt.ma))
	return ca >= 0 && ca == sn.ComponentOf(int64(bt.mb))
}

// mixedState accumulates the mixed slices. Latencies are in ms; mu
// guards the latency slices and notVisible, which several goroutines of
// a slice append to. acked and ackedN belong to the writer goroutine.
type mixedState struct {
	mu         sync.Mutex
	late       []float64
	acks       []float64
	vis        []float64
	notVisible int
	acked      []bool
	ackedN     int
	// ctr0 is the durable server's counters before the first slice.
	ctr0 metrics.ServeSnapshot
}

func (ms *mixedState) add(dst *[]float64, d time.Duration) {
	ms.mu.Lock()
	*dst = append(*dst, float64(d)/1e6)
	ms.mu.Unlock()
}

// mixedSlice is the open-loop durable mixed load over two connections
// to the durable server, for d: reads at the workload's fixed rate on
// one, batches[lo:hi] at its fixed write rate on the other. Every
// latency counts from the request's due time. A prober polls the
// server's snapshot for each acknowledged batch's markers, which
// measures visibility without /update?wait=1; the slice ends once every
// acknowledged batch is visible or visibleWait has passed.
func (b *bench) mixedSlice(d time.Duration, lo, hi int, round int) {
	w := b.cfg.w
	ms := &b.mixed
	srv := b.env.mixed.srv
	url := b.env.mixed.url
	// One slot per batch: the writer never blocks on the prober.
	ackedCh := make(chan pending, hi-lo)
	start := time.Now().Add(10 * time.Millisecond)
	end := start.Add(d)
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // writer
		defer wg.Done()
		defer close(ackedCh)
		c := newClient()
		defer c.CloseIdleConnections()
		for j := lo; j < hi; j++ {
			due := start.Add(time.Duration(float64(j-lo) / w.writeRate * float64(time.Second)))
			body := b.batches[j].body()
			sleepUntil(due)
			sent := time.Now()
			status, err := postUpdate(c, url, body)
			done := time.Now()
			b.tr.record(0, 0, "http.update", sent, done)
			ms.add(&ms.late, sent.Sub(due))
			if err != nil || status != http.StatusAccepted {
				b.tally.fail()
				ms.add(&ms.acks, failedLatency)
				ms.add(&ms.vis, failedLatency)
				continue
			}
			b.tally.ok()
			ms.add(&ms.acks, done.Sub(due))
			ms.acked[j] = true
			ms.ackedN++
			ackedCh <- pending{j: j, due: due}
		}
	}()
	go func() { // reader
		defer wg.Done()
		c := newClient()
		defer c.CloseIdleConnections()
		rng := rand.New(rand.NewSource((b.cfg.seed*104729 + int64(round)) * 2))
		n := int32(b.env.serveG.NumNodes())
		var kinds kindOrder
		for k := 0; ; k++ {
			due := start.Add(time.Duration(float64(k) / w.readRate * float64(time.Second)))
			if !due.Before(end) {
				return
			}
			sleepUntil(due)
			sent := time.Now()
			q := query{kind: kinds.next(rng), u: rng.Int31n(n), v: rng.Int31n(n)}
			_, err := doQuery(c, url, q)
			b.tr.record(0, 0, mixedSpans[q.kind], sent, time.Now())
			ms.add(&ms.late, sent.Sub(due))
			if err != nil {
				b.tally.fail()
			} else {
				b.tally.ok()
			}
		}
	}()
	go func() { // visibility prober
		defer wg.Done()
		var queue []pending
		open := true
		for open || len(queue) > 0 {
		drain:
			for open {
				select {
				case p, ok := <-ackedCh:
					if !ok {
						open = false
						break drain
					}
					queue = append(queue, p)
				default:
					break drain
				}
			}
			sn := srv.Snapshot()
			now := time.Now()
			for len(queue) > 0 && visible(sn, b.batches[queue[0].j]) {
				b.tr.record(0, 0, "probe.visible", queue[0].due, now)
				ms.add(&ms.vis, now.Sub(queue[0].due))
				queue = queue[1:]
			}
			if !open && now.After(end.Add(visibleWait)) {
				break
			}
			time.Sleep(probeTick)
		}
		for range queue {
			ms.add(&ms.vis, failedLatency)
		}
		ms.mu.Lock()
		ms.notVisible += len(queue)
		ms.mu.Unlock()
	}()
	wg.Wait()
}

// finishMixed reports the mixed metrics and checks the durable server's
// final labels against Tarjan on the acknowledged edge set. Once the
// last acknowledged batch is visible, every earlier one is: epochs
// consume the update queue in order.
func (b *bench) finishMixed() error {
	ms := &b.mixed
	// An acknowledged batch that never became visible is a wrong
	// answer, not just a slow one.
	for range ms.notVisible {
		b.tally.mismatch()
	}
	if len(ms.acks) == 0 {
		return fmt.Errorf("mixed: no batches sent")
	}
	b.put("visible_p50_ms", quantile(ms.vis, 0.5), "ms")
	b.put("visible_p99_ms", quantile(ms.vis, 0.99), "ms")
	b.put("ack_p99_ms", quantile(ms.acks, 0.99), "ms")
	b.put("loadgen.late_p99_ms", quantile(ms.late, 0.99), "ms")

	ctr := b.env.mixed.srv.Counters().Snapshot()
	epochs := ctr.EpochSwaps - ms.ctr0.EpochSwaps
	b.put("server.epochs", float64(epochs), "count")
	b.put("server.full_rebuilds", float64(ctr.FullRebuilds-ms.ctr0.FullRebuilds), "count")
	b.put("server.verify_runs", float64(ctr.IncrVerifyRuns-ms.ctr0.IncrVerifyRuns), "count")
	b.put("server.batches_per_epoch", float64(ms.ackedN)/float64(max(epochs, 1)), "count")
	b.put("incr.fallbacks", float64(ctr.IncrFallbacks-ms.ctr0.IncrFallbacks), "count")
	b.put("server.shed_429", float64(ctr.Shed+b.env.read.srv.Counters().Shed.Load()), "count")

	final := finalGraph(b.env.serveG, b.batches, ms.acked)
	want, err := tarjan(final)
	if err != nil {
		return err
	}
	b.tally.ok()
	if got := b.env.mixed.srv.Snapshot().Cond.NodeComp; !scc.SamePartition(got, want) {
		b.tally.mismatch()
	}
	return nil
}

// valid reports whether the open-loop generator kept its schedule.
func (b *bench) valid() bool {
	return quantile(b.mixed.late, 0.99) <= float64(lateBound)/1e6
}

// batch is one /update batch: mix updates plus a 2-cycle between two
// fresh marker nodes, whose merge into one component in a published
// snapshot shows that the whole batch is visible.
type batch struct {
	ups    []graph.Update
	ma, mb int32
}

func (bt batch) body() []byte {
	var buf bytes.Buffer
	for _, u := range bt.ups {
		buf.WriteString(u.Op.String())
		buf.WriteString(strconv.Itoa(int(u.From)))
		buf.WriteByte(' ')
		buf.WriteString(strconv.Itoa(int(u.To)))
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// makeBatches builds the write stream against the labeling it
// produces, as the incremental-maintenance experiment does: each batch
// is generated from a standalone incr.Maintainer's current labeling and
// then applied to it. The mixes rotate: inserts inside the largest SCC,
// insert pairs that close cycles between random nodes, and deletes of
// existing edges between different SCCs (which can never split one)
// padded with absent-edge deletes. Marker node ids start at the graph's
// node count, a range no mix update touches. The Apply calls are the
// traced run's incr replay.
func (b *bench) makeBatches(count int) ([]batch, error) {
	ctx := context.Background()
	g := b.env.serveG
	m := incr.New(g, b.detectCopy)
	if _, _, err := m.FullBuild(ctx, nil, b.buildCond); err != nil {
		return nil, fmt.Errorf("stream maintainer: %w", err)
	}
	rng := rand.New(rand.NewSource(b.cfg.seed))
	n := int32(g.NumNodes())
	var st incr.Stats
	out := make([]batch, count)
	for j := range out {
		comp := m.Cond().NodeComp
		ups := make([]graph.Update, 0, batchSize)
		mixed := batchSize - 2
		switch j % 3 {
		case 0:
			giant := largestComponent(m.Cond(), n, 4096)
			for len(ups) < mixed {
				u, v := giant[rng.Intn(len(giant))], giant[rng.Intn(len(giant))]
				ups = append(ups, graph.Update{Op: graph.EdgeInsert, From: u, To: v})
			}
		case 1:
			for len(ups)+2 <= mixed {
				u, v := rng.Int31n(n), rng.Int31n(n)
				if u == v {
					continue
				}
				ups = append(ups,
					graph.Update{Op: graph.EdgeInsert, From: u, To: v},
					graph.Update{Op: graph.EdgeInsert, From: v, To: u})
			}
		case 2:
			for tries := 0; len(ups) < mixed && tries < mixed*64; tries++ {
				u := rng.Int31n(n)
				nbrs := g.Out(u)
				if len(nbrs) == 0 {
					continue
				}
				v := nbrs[rng.Intn(len(nbrs))]
				if comp[u] != comp[v] {
					ups = append(ups, graph.Update{Op: graph.EdgeDelete, From: u, To: v})
				}
			}
			for len(ups) < mixed {
				u := rng.Int31n(n)
				ups = append(ups, graph.Update{Op: graph.EdgeDelete, From: u, To: u})
			}
		}
		ma, mb := n+int32(2*j), n+int32(2*j)+1
		ups = append(ups,
			graph.Update{Op: graph.EdgeInsert, From: ma, To: mb},
			graph.Update{Op: graph.EdgeInsert, From: mb, To: ma})
		out[j] = batch{ups: ups, ma: ma, mb: mb}

		t0 := time.Now()
		_, s, err := m.Apply(ctx, ups)
		if err != nil {
			return nil, fmt.Errorf("stream maintainer: %w", err)
		}
		b.tr.record(0, 0, "incr.Maintainer.Apply", t0, time.Now())
		st.Add(s)
	}
	if b.tr != nil {
		apply := b.tr.durationsMS("incr.Maintainer.Apply")
		b.put("incr.apply_us_p50", quantile(apply, 0.5)*1e3, "us")
		b.put("incr.apply_us_p99", quantile(apply, 0.99)*1e3, "us")
		b.put("incr.intra_inserts", float64(st.IntraInserts), "count")
		b.put("incr.dag_inserts", float64(st.DagInserts), "count")
		b.put("incr.cycle_merges", float64(st.CycleMerges), "count")
		b.put("incr.noop_deletes", float64(st.NoopDeletes), "count")
		b.put("incr.dag_deletes", float64(st.DagDeletes), "count")
		b.put("incr.partials", float64(st.Partials), "count")
	}
	b.streamFinal = m.Materialize()
	return out, nil
}

// largestComponent returns up to limit members of the condensation's
// largest component among the first n nodes.
func largestComponent(c *scc.Condensed, n int32, limit int) []int32 {
	var best int32
	for k, sz := range c.Sizes {
		if sz > c.Sizes[best] {
			best = int32(k)
		}
	}
	var members []int32
	for v := int32(0); v < n && len(members) < limit; v++ {
		if c.NodeComp[v] == best {
			members = append(members, v)
		}
	}
	return members
}

// finalGraph applies the acknowledged batches, in order and with set
// semantics, to base: the edge set the server must label at the end.
func finalGraph(base *graph.Graph, batches []batch, acked []bool) *graph.Graph {
	n := base.NumNodes()
	present := map[[2]int32]bool{}
	for j, bt := range batches {
		if !acked[j] {
			continue
		}
		for _, u := range bt.ups {
			n = max(n, int(u.From)+1, int(u.To)+1)
			present[[2]int32{u.From, u.To}] = u.Op == graph.EdgeInsert
		}
	}
	bld := graph.NewBuilder(n)
	for v := 0; v < base.NumNodes(); v++ {
		for _, w := range base.Out(graph.NodeID(v)) {
			if p, ok := present[[2]int32{int32(v), w}]; ok && !p {
				continue
			}
			bld.AddEdge(graph.NodeID(v), w)
		}
	}
	nb := int32(base.NumNodes())
	for e, p := range present {
		inBase := e[0] < nb && e[1] < nb && base.HasEdge(e[0], e[1])
		if p && !inBase {
			bld.AddEdge(e[0], e[1])
		}
	}
	return bld.Build()
}
