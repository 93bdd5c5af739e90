package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/graph"
)

// Query kinds, sent in equal thirds.
const (
	qComponentOf = iota
	qSame
	qReachable
	numKinds
)

var (
	kindNames = [numKinds]string{"componentof", "same", "reachable"}
	// Span names of the read requests, per section.
	readSpans  = [numKinds]string{"http.componentof", "http.same", "http.reachable"}
	mixedSpans = [numKinds]string{"http.mixed.componentof", "http.mixed.same", "http.mixed.reachable"}
)

// kindOrder deals query kinds in shuffled blocks of three: exact
// thirds, but with no fixed phase between connections, which would
// otherwise decide whether point queries share the CPUs with
// reachable ones for a whole run.
type kindOrder struct {
	order [numKinds]uint8
	i     int
}

func (o *kindOrder) next(rng *rand.Rand) uint8 {
	if o.i%numKinds == 0 {
		o.order = [numKinds]uint8{qComponentOf, qSame, qReachable}
		rng.Shuffle(numKinds, func(i, j int) { o.order[i], o.order[j] = o.order[j], o.order[i] })
	}
	k := o.order[o.i%numKinds]
	o.i++
	return k
}

type query struct {
	kind uint8
	u, v int32
}

func (q query) path() string {
	u, v := strconv.Itoa(int(q.u)), strconv.Itoa(int(q.v))
	switch q.kind {
	case qComponentOf:
		return "/componentof?node=" + u
	case qSame:
		return "/same?u=" + u + "&v=" + v
	default:
		return "/reachable?from=" + u + "&to=" + v
	}
}

// answer is the union of the three query endpoints' response fields.
type answer struct {
	Component int32 `json:"component"`
	Size      int64 `json:"size"`
	Same      bool  `json:"same"`
	Reachable bool  `json:"reachable"`
}

type sampled struct {
	q query
	a answer
}

// newClient returns a client that holds one keep-alive connection, so
// each load goroutine is exactly one connection.
func newClient() *http.Client {
	return &http.Client{
		Timeout: failedLatency,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		},
	}
}

// doQuery sends one read. Any transport error or non-200 status is a
// failure; the body is drained so the connection is reused.
func doQuery(c *http.Client, base string, q query) (answer, error) {
	var a answer
	resp, err := c.Get(base + q.path())
	if err != nil {
		return a, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return a, err
	}
	if resp.StatusCode != http.StatusOK {
		return a, fmt.Errorf("%s: status %d", kindNames[q.kind], resp.StatusCode)
	}
	if err := json.Unmarshal(body, &a); err != nil {
		return a, fmt.Errorf("%s: %w", kindNames[q.kind], err)
	}
	return a, nil
}

// sampleEvery is the stride of answers kept for the oracle check.
const sampleEvery = 8

// readState accumulates the read slices.
type readState struct {
	lat     [numKinds][]float64
	queries []query
	sampled []sampled
	oks     int
	elapsed time.Duration
}

// readSlice is the closed-loop read-only load for d: one connection per
// CPU against the read-only server, each sending componentof, same and
// reachable in shuffled thirds over uniformly random nodes. One answer
// in sampleEvery is kept for the oracle check.
func (b *bench) readSlice(d time.Duration, round int) {
	n := int32(b.env.serveG.NumNodes())
	outs := make([]readState, runtime.NumCPU())
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for i := range outs {
		wg.Add(1)
		go func(o *readState, seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			c := newClient()
			defer c.CloseIdleConnections()
			var kinds kindOrder
			for k := 0; time.Now().Before(deadline); k++ {
				q := query{kind: kinds.next(rng), u: rng.Int31n(n), v: rng.Int31n(n)}
				t0 := time.Now()
				a, err := doQuery(c, b.env.read.url, q)
				t1 := time.Now()
				b.tr.record(0, 0, readSpans[q.kind], t0, t1)
				lat := t1.Sub(t0)
				if err != nil {
					b.tally.fail()
					lat = failedLatency
				} else {
					b.tally.ok()
					o.oks++
					if k%sampleEvery == 0 {
						o.sampled = append(o.sampled, sampled{q, a})
					}
				}
				o.lat[q.kind] = append(o.lat[q.kind], float64(lat)/1e3)
				o.queries = append(o.queries, q)
			}
		}(&outs[i], (b.cfg.seed*7919+int64(round))*64+int64(i))
	}
	wg.Wait()
	rs := &b.read
	rs.elapsed += time.Since(start)
	for i := range outs {
		o := &outs[i]
		for k := range o.lat {
			rs.lat[k] = append(rs.lat[k], o.lat[k]...)
		}
		rs.queries = append(rs.queries, o.queries...)
		rs.sampled = append(rs.sampled, o.sampled...)
		rs.oks += o.oks
	}
}

func (b *bench) finishRead() error {
	rs := &b.read
	var point []float64
	point = append(point, rs.lat[qComponentOf]...)
	point = append(point, rs.lat[qSame]...)
	if len(rs.lat[qReachable]) == 0 || len(point) == 0 {
		return fmt.Errorf("read: no queries completed")
	}
	b.put("read_qps", float64(rs.oks)/rs.elapsed.Seconds(), "1/s")
	b.put("reachable_p50_us", quantile(rs.lat[qReachable], 0.5), "us")
	b.put("reachable_p99_us", quantile(rs.lat[qReachable], 0.99), "us")
	b.put("point_p50_us", quantile(point, 0.5), "us")
	b.put("point_p99_us", quantile(point, 0.99), "us")
	for range checkAnswers(b.env.serveG, b.serveOracle, b.serveSizes, rs.sampled) {
		b.tally.mismatch()
	}
	if b.tr != nil {
		b.replayReads(median(rs.lat[qComponentOf]))
	}
	return nil
}

// maxReachChecks bounds the BFS oracle checks of sampled reachable
// answers.
const maxReachChecks = 300

// checkAnswers checks sampled read answers against the Tarjan labeling
// oracle and a plain BFS, and returns the answers it rejects.
// componentof ids are the server's own dense ids, so they are checked
// for a consistent one-to-one mapping onto oracle classes plus the
// class size.
func checkAnswers(g *graph.Graph, oracle []int32, sizes map[int32]int64, answers []sampled) []sampled {
	var bad []sampled
	toOracle := map[int32]int32{}
	toServer := map[int32]int32{}
	bfs := newBFS(g.NumNodes())
	reachChecks := 0
	for _, s := range answers {
		ok := true
		switch s.q.kind {
		case qComponentOf:
			l := oracle[s.q.u]
			ol, seen1 := toOracle[s.a.Component]
			sc, seen2 := toServer[l]
			ok = (!seen1 || ol == l) && (!seen2 || sc == s.a.Component) && s.a.Size == sizes[l]
			toOracle[s.a.Component] = l
			toServer[l] = s.a.Component
		case qSame:
			ok = s.a.Same == (oracle[s.q.u] == oracle[s.q.v])
		case qReachable:
			if reachChecks == maxReachChecks {
				continue
			}
			reachChecks++
			ok = s.a.Reachable == bfs.reaches(g, s.q.u, s.q.v)
		}
		if !ok {
			bad = append(bad, s)
		}
	}
	return bad
}

// bfsState is a reusable node-level BFS, the reachability oracle.
type bfsState struct {
	stamp []uint32
	cur   uint32
	queue []graph.NodeID
}

func newBFS(n int) *bfsState { return &bfsState{stamp: make([]uint32, n)} }

func (s *bfsState) reaches(g *graph.Graph, from, to int32) bool {
	if from == to {
		return true
	}
	s.cur++
	s.queue = append(s.queue[:0], graph.NodeID(from))
	s.stamp[from] = s.cur
	for i := 0; i < len(s.queue); i++ {
		for _, w := range g.Out(s.queue[i]) {
			if w == graph.NodeID(to) {
				return true
			}
			if s.stamp[w] != s.cur {
				s.stamp[w] = s.cur
				s.queue = append(s.queue, w)
			}
		}
	}
	return false
}
