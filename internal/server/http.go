package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"repro/graph"
	"repro/internal/metrics"
	"repro/scc"
)

// Handler returns the service's HTTP surface.
//
// Query endpoints (admission-controlled, deadline-propagated,
// panic-isolated):
//
//	GET  /componentof?node=N      SCC id and size of one node
//	GET  /same?u=U&v=V            same-SCC predicate
//	GET  /reachable?from=U&to=V   u→v reachability via the condensation
//
// Mutation and compute endpoints (admission-controlled):
//
//	POST /update[?wait=1]         apply a signed update batch ("u v" /
//	                              "+u v" inserts, "-u v" deletes);
//	                              wait=1 blocks until an epoch that
//	                              includes the batch publishes
//	POST /scc                     ad-hoc detection on a POSTed edge list
//
// Control endpoints (never shed, so they answer during overload):
//
//	GET /healthz                  liveness
//	GET /readyz                   readiness (epoch present, not
//	                              draining, not stale)
//	GET /stats                    counters + epoch metadata
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /componentof", s.endpoint(true, s.handleComponentOf))
	mux.HandleFunc("GET /same", s.endpoint(true, s.handleSame))
	mux.HandleFunc("GET /reachable", s.endpoint(true, s.handleReachable))
	mux.HandleFunc("POST /update", s.endpoint(false, s.handleUpdate))
	mux.HandleFunc("POST /scc", s.endpoint(false, s.handleSCC))
	mux.HandleFunc("GET /healthz", s.recovered(false, s.handleHealthz))
	mux.HandleFunc("GET /readyz", s.recovered(false, s.handleReadyz))
	mux.HandleFunc("GET /stats", s.recovered(false, s.handleStats))
	return mux
}

// endpoint assembles the full middleware chain for a load-bearing
// handler: panic isolation outermost, then admission control.
func (s *Server) endpoint(isQuery bool, h http.HandlerFunc) http.HandlerFunc {
	return s.recovered(isQuery, s.admitted(h))
}

// recovered isolates handler panics: the request gets a 500, the
// counter moves, the process lives. Query-path panics additionally
// count toward QueryErr5xx, the number the chaos gate holds at zero.
func (s *Server) recovered(isQuery bool, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				s.ctr.Panics.Add(1)
				if isQuery {
					s.ctr.QueryErr5xx.Add(1)
				}
				s.cfg.Logf("server: panic in %s: %v\n%s", r.URL.Path, v, debug.Stack())
				writeJSON(w, http.StatusInternalServerError,
					errBody{Error: fmt.Sprintf("internal panic: %v", v)})
			}
		}()
		h(w, r)
	}
}

// admitted is the admission-control middleware: reject while draining,
// shed with 429 + Retry-After when the slot pool and its bounded queue
// are saturated or the queue wait elapses, and propagate the
// per-request deadline to the handler once a slot is held.
func (s *Server) admitted(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !s.tryEnter() {
			s.ctr.DrainRejected.Add(1)
			s.retryAfter(w)
			writeJSON(w, http.StatusServiceUnavailable, errBody{Error: "server draining"})
			return
		}
		defer s.exit()
		select {
		case s.slots <- struct{}{}:
		default:
			if q := s.waiting.Add(1); q > int64(s.cfg.QueueDepth) {
				s.waiting.Add(-1)
				s.shed(w)
				return
			}
			t := time.NewTimer(s.cfg.QueueWait)
			select {
			case s.slots <- struct{}{}:
				t.Stop()
				s.waiting.Add(-1)
			case <-t.C:
				s.waiting.Add(-1)
				s.shed(w)
				return
			case <-r.Context().Done():
				t.Stop()
				s.waiting.Add(-1)
				// The client is gone (or its deadline passed) while
				// queued; nobody reads the response.
				writeJSON(w, statusClientGone, errBody{Error: "canceled while queued"})
				return
			}
		}
		defer func() { <-s.slots }()
		if s.testHold != nil {
			<-s.testHold
		}
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		h(w, r.WithContext(ctx))
	}
}

// statusClientGone is the nginx-convention status for a request whose
// client disconnected before a response was produced.
const statusClientGone = 499

func (s *Server) shed(w http.ResponseWriter) {
	s.ctr.Shed.Add(1)
	s.retryAfter(w)
	writeJSON(w, http.StatusTooManyRequests, errBody{Error: "overloaded, try later"})
}

// retryAfter attaches the Retry-After hint (whole seconds, min 1).
func (s *Server) retryAfter(w http.ResponseWriter) {
	secs := int((s.cfg.RetryAfter + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
}

type errBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// errorStatus maps a detection-layer error onto an HTTP status. Busy
// is overload (429, retryable); stalled/closed/canceled/budget are
// service-side conditions a healthy retry may clear (503); captured
// panics are 500; bad inputs are 400.
func errorStatus(err error) int {
	switch {
	case errors.Is(err, scc.ErrEngineBusy):
		return http.StatusTooManyRequests
	case errors.Is(err, scc.ErrNilGraph), errors.Is(err, scc.ErrInvalidOption):
		return http.StatusBadRequest
	case errors.Is(err, scc.ErrCanceled), errors.Is(err, scc.ErrStalled),
		errors.Is(err, scc.ErrEngineClosed), errors.Is(err, scc.ErrMemoryBudget):
		return http.StatusServiceUnavailable
	default:
		var pe *scc.PanicError
		if errors.As(err, &pe) {
			return http.StatusInternalServerError
		}
		return http.StatusInternalServerError
	}
}

// queryFail writes a query-endpoint failure, counting 5xx toward the
// zero-5xx serving gate.
func (s *Server) queryFail(w http.ResponseWriter, code int, msg string) {
	if code >= 500 {
		s.ctr.QueryErr5xx.Add(1)
	}
	writeJSON(w, code, errBody{Error: msg})
}

// snapshotOr503 loads the current epoch; absent only before the
// initial build, which New performs synchronously.
func (s *Server) snapshotOr503(w http.ResponseWriter) *Snapshot {
	sn := s.snap.Load()
	if sn == nil {
		s.queryFail(w, http.StatusServiceUnavailable, "no epoch published")
	}
	return sn
}

func intParam(r *http.Request, name string) (int64, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return 0, fmt.Errorf("missing parameter %q", name)
	}
	v, err := strconv.ParseInt(raw, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("parameter %q: %v", name, err)
	}
	return v, nil
}

// nodeParam parses a node id parameter and bounds-checks it against
// the snapshot's node count.
func nodeParam(r *http.Request, sn *Snapshot, name string) (int32, error) {
	v, err := intParam(r, name)
	if err != nil {
		return 0, err
	}
	if v < 0 || v >= int64(sn.Nodes) {
		return 0, fmt.Errorf("parameter %q: node %d out of range [0,%d)", name, v, sn.Nodes)
	}
	return int32(v), nil
}

func (s *Server) handleComponentOf(w http.ResponseWriter, r *http.Request) {
	sn := s.snapshotOr503(w)
	if sn == nil {
		return
	}
	v, err := nodeParam(r, sn, "node")
	if err != nil {
		s.queryFail(w, http.StatusBadRequest, err.Error())
		return
	}
	c := sn.Cond.NodeComp[v]
	writeJSON(w, http.StatusOK, map[string]any{
		"epoch":     sn.Epoch,
		"node":      v,
		"component": c,
		"size":      sn.Cond.Sizes[c],
	})
}

func (s *Server) handleSame(w http.ResponseWriter, r *http.Request) {
	sn := s.snapshotOr503(w)
	if sn == nil {
		return
	}
	u, err := nodeParam(r, sn, "u")
	if err != nil {
		s.queryFail(w, http.StatusBadRequest, err.Error())
		return
	}
	v, err := nodeParam(r, sn, "v")
	if err != nil {
		s.queryFail(w, http.StatusBadRequest, err.Error())
		return
	}
	cu, cv := sn.Cond.NodeComp[u], sn.Cond.NodeComp[v]
	writeJSON(w, http.StatusOK, map[string]any{
		"epoch":       sn.Epoch,
		"u":           u,
		"v":           v,
		"same":        cu == cv,
		"component_u": cu,
		"component_v": cv,
	})
}

func (s *Server) handleReachable(w http.ResponseWriter, r *http.Request) {
	sn := s.snapshotOr503(w)
	if sn == nil {
		return
	}
	from, err := nodeParam(r, sn, "from")
	if err != nil {
		s.queryFail(w, http.StatusBadRequest, err.Error())
		return
	}
	to, err := nodeParam(r, sn, "to")
	if err != nil {
		s.queryFail(w, http.StatusBadRequest, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"epoch":     sn.Epoch,
		"from":      from,
		"to":        to,
		"reachable": sn.Reachable(from, to),
	})
}

// handleUpdate applies a signed update batch to the authoritative
// update queue and kicks an asynchronous epoch rebuild. The batch is
// one update per line: "u v" or "+u v" inserts the edge, "-u v"
// deletes it; node ids beyond the current graph grow it. With ?wait=1
// the handler blocks (bounded by the request deadline) until an epoch
// that includes this batch publishes, answering 200; otherwise it
// answers 202 immediately. A batch that would push the graph past
// BodyLimits is rejected whole with 413 and nothing is applied.
func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	batch, maxNode, err := parseUpdateBatch(r.Context(), r)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errBody{Error: err.Error()})
		return
	}
	nodes, edges := s.totals()
	newNodes := int64(nodes)
	if maxNode+1 > newNodes {
		newNodes = maxNode + 1
	}
	lim := s.cfg.BodyLimits
	if lim.MaxNodes > 0 && newNodes > lim.MaxNodes {
		writeJSON(w, http.StatusRequestEntityTooLarge, errBody{Error: (&graph.LimitError{
			Format: "update", Dimension: "nodes", Value: newNodes, Limit: lim.MaxNodes}).Error()})
		return
	}
	// Only inserts can grow the edge set; the pre-check is an upper
	// bound, exactly like edgeEst itself.
	if total := edges + countInserts(batch); lim.MaxEdges > 0 && total > lim.MaxEdges {
		writeJSON(w, http.StatusRequestEntityTooLarge, errBody{Error: (&graph.LimitError{
			Format: "update", Dimension: "edges", Value: total, Limit: lim.MaxEdges}).Error()})
		return
	}
	if len(batch) == 0 {
		writeJSON(w, http.StatusOK, map[string]any{"applied": 0, "epoch": s.epochNow()})
		return
	}
	ord, err := s.applyUpdate(batch, maxNode)
	if err != nil {
		// The write-ahead log could not persist the batch; refusing it
		// outright beats acknowledging an update a crash would lose.
		s.retryAfter(w)
		writeJSON(w, http.StatusServiceUnavailable, errBody{Error: err.Error()})
		return
	}
	if r.URL.Query().Get("wait") == "" {
		writeJSON(w, http.StatusAccepted, map[string]any{
			"applied": len(batch), "epoch": s.epochNow(), "rebuilt": false,
		})
		return
	}
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	// Wait for an epoch that consumed this very batch: a rebuild
	// already in flight when the batch arrived publishes a newer
	// epoch without it.
	for s.batchesPublished() < ord {
		select {
		case <-r.Context().Done():
			writeJSON(w, http.StatusAccepted, map[string]any{
				"applied": len(batch), "epoch": s.epochNow(), "rebuilt": false,
			})
			return
		case <-tick.C:
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"applied": len(batch), "epoch": s.epochNow(), "rebuilt": true,
	})
}

// parseUpdateBatch reads signed update lines with periodic context
// checks, mirroring the limited loaders' hostile-input posture without
// materializing a Graph. Each line is "u v" or "+u v" (insert) or
// "-u v" (delete); the sign may be its own field ("+ u v") or fused to
// the source id ("+u v"). '#' and '%' comment lines are allowed.
func parseUpdateBatch(ctx context.Context, r *http.Request) ([]graph.Update, int64, error) {
	const cancelCheckEvery = 4096
	var (
		batch   []graph.Update
		maxNode int64 = -1
		lineNo  int
	)
	sc := bufio.NewScanner(r.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		lineNo++
		if lineNo%cancelCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, 0, fmt.Errorf("update interrupted: %w", err)
			}
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		fields := strings.Fields(line)
		op := graph.EdgeInsert
		if f := fields[0]; f == "+" || f == "-" {
			if f == "-" {
				op = graph.EdgeDelete
			}
			fields = fields[1:]
		} else if len(f) > 1 && (f[0] == '+' || f[0] == '-') {
			if f[0] == '-' {
				op = graph.EdgeDelete
			}
			fields[0] = f[1:]
		}
		if len(fields) < 2 {
			return nil, 0, fmt.Errorf("line %d: want \"[+|-]u v\", got %q", lineNo, line)
		}
		u, err := strconv.ParseInt(fields[0], 10, 32)
		if err != nil {
			return nil, 0, fmt.Errorf("line %d: bad source %q", lineNo, fields[0])
		}
		v, err := strconv.ParseInt(fields[1], 10, 32)
		if err != nil {
			return nil, 0, fmt.Errorf("line %d: bad target %q", lineNo, fields[1])
		}
		if u < 0 || v < 0 {
			return nil, 0, fmt.Errorf("line %d: negative node id", lineNo)
		}
		if u > maxNode {
			maxNode = u
		}
		if v > maxNode {
			maxNode = v
		}
		batch = append(batch, graph.Update{Op: op, From: int32(u), To: int32(v)})
	}
	if err := sc.Err(); err != nil {
		return nil, 0, fmt.Errorf("reading update body: %v", err)
	}
	return batch, maxNode, nil
}

// handleSCC runs ad-hoc detection on a POSTed edge list using the
// pinned engine. The body goes through the limited loader, so hostile
// inputs are rejected by policy (413) before allocation; contention
// with an in-flight rebuild surfaces as 429 + Retry-After via
// scc.ErrEngineBusy.
func (s *Server) handleSCC(w http.ResponseWriter, r *http.Request) {
	g, err := graph.ReadEdgeListLimited(r.Context(), r.Body, s.cfg.BodyLimits)
	if err != nil {
		switch {
		case errors.Is(err, graph.ErrLimitExceeded):
			writeJSON(w, http.StatusRequestEntityTooLarge, errBody{Error: err.Error()})
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			writeJSON(w, statusClientGone, errBody{Error: err.Error()})
		default:
			writeJSON(w, http.StatusBadRequest, errBody{Error: err.Error()})
		}
		return
	}
	info, err := s.detectAdhoc(r.Context(), g)
	if err != nil {
		code := errorStatus(err)
		if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
			s.retryAfter(w)
		}
		if code == http.StatusTooManyRequests {
			s.ctr.Shed.Add(1)
		}
		writeJSON(w, code, errBody{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"nodes":     g.NumNodes(),
		"edges":     g.NumEdges(),
		"num_sccs":  info.numSCCs,
		"detect_us": info.detect.Microseconds(),
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.stateMu.Lock()
	closed := s.closed
	s.stateMu.Unlock()
	if closed {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "closed"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "epoch": s.epochNow()})
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	s.stateMu.Lock()
	draining, closed := s.draining, s.closed
	s.stateMu.Unlock()
	switch {
	case closed:
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false, "reason": "closed"})
		return
	case draining:
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false, "reason": "draining"})
		return
	case s.recoveringNow():
		// Snapshot load + WAL replay is still running: tell load
		// balancers when to re-probe rather than routing to a cold
		// replica.
		s.retryAfter(w)
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false, "reason": "recovering"})
		return
	}
	if s.readyErr != nil {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"ready": false, "reason": "recovery failed", "error": s.readyErr.Error(),
		})
		return
	}
	sn := s.snap.Load()
	if sn == nil {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false, "reason": "no epoch published"})
		return
	}
	if s.cfg.MaxEpochAge > 0 {
		if dirty, since := s.pendingSince(); dirty && !since.IsZero() {
			if age := time.Since(since); age > s.cfg.MaxEpochAge {
				writeJSON(w, http.StatusServiceUnavailable, map[string]any{
					"ready": false, "reason": "stale",
					"pending_for_ms": age.Milliseconds(),
					"epoch":          sn.Epoch,
				})
				return
			}
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"ready": true, "epoch": sn.Epoch})
}

// statsBody is the /stats response; the load harness reads it to gate
// the serving experiments.
type statsBody struct {
	Epoch      int64                 `json:"epoch"`
	Built      time.Time             `json:"built"`
	Nodes      int                   `json:"nodes"`
	Edges      int64                 `json:"edges"`
	NumSCCs    int64                 `json:"num_sccs"`
	Algorithm  string                `json:"algorithm"`
	DetectUS   int64                 `json:"detect_us"`
	Draining   bool                  `json:"draining"`
	Dirty      bool                  `json:"dirty"`
	Rebuilds   int64                 `json:"rebuild_attempts"`
	LastError  string                `json:"last_error,omitempty"`
	Waiting    int64                 `json:"queue_waiting"`
	QueueDepth int                   `json:"queue_depth"`
	Inflight   int                   `json:"max_inflight"`
	Counters   metrics.ServeSnapshot `json:"counters"`

	// Durability fields; zero-valued when the server has no store.
	Recovering   bool  `json:"recovering"`
	RecoveryMS   int64 `json:"recovery_ms"`
	WALReplayed  int64 `json:"wal_records_replayed"`
	WALTruncated bool  `json:"wal_truncated"`
	WALLastSeq   int64 `json:"wal_last_seq"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.stateMu.Lock()
	draining := s.draining
	s.stateMu.Unlock()
	dirty, _ := s.pendingSince()
	body := statsBody{
		Draining:   draining,
		Dirty:      dirty,
		Rebuilds:   s.rebuildN.Load(),
		Waiting:    s.waiting.Load(),
		QueueDepth: s.cfg.QueueDepth,
		Inflight:   s.cfg.MaxInflight,
		Counters:   s.ctr.Snapshot(),

		Recovering:   s.recoveringNow(),
		RecoveryMS:   s.recoveryMS.Load(),
		WALReplayed:  s.walReplayed.Load(),
		WALTruncated: s.walTruncated.Load(),
	}
	if s.store != nil {
		body.WALLastSeq = int64(s.store.LastSeq())
	}
	if msg := s.lastErr.Load(); msg != nil {
		body.LastError = *msg
	}
	if sn := s.snap.Load(); sn != nil {
		body.Epoch = sn.Epoch
		body.Built = sn.Built
		body.Nodes = sn.Nodes
		body.Edges = sn.Edges
		body.NumSCCs = sn.NumSCCs
		body.Algorithm = sn.Algorithm.String()
		body.DetectUS = sn.Detect.Microseconds()
	}
	writeJSON(w, http.StatusOK, body)
}
