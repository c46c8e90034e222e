package server

import (
	"fmt"
	"sync"
	"time"

	"qfusor/internal/core"
	"qfusor/internal/engines"
)

// SessionOptions are the per-session execution knobs. Each maps onto a
// shared-infrastructure view rather than a mutation: Tier derives a
// QFusor variant (same caches and breaker, different options
// fingerprint — the plan cache partitions by it), Parallelism/Morsel
// derive an engine view (same catalog and invoker, different worker
// count — the plan cache keys on it), and Timeout becomes a context
// deadline per query.
type SessionOptions struct {
	// Tenant attributes the session's queries to an admission tenant
	// ("" = the default tenant).
	Tenant string `json:"tenant,omitempty"`
	// Timeout bounds each query from this session (0 = server default).
	Timeout time.Duration `json:"timeout,omitempty"`
	// Tier pins the execution tier ("" = engine default).
	Tier core.Tier `json:"tier,omitempty"`
	// Parallelism overrides the engine worker count (0 = engine
	// default).
	Parallelism int `json:"parallelism,omitempty"`
	// Morsel overrides the executor morsel size (0 = engine default).
	Morsel int `json:"morsel,omitempty"`
}

// session is one client's handle: identity, its engine view, and its
// prepared statements.
type session struct {
	id      string
	opts    SessionOptions
	inst    *engines.Instance // view of the shared instance
	created time.Time

	mu       sync.Mutex
	prepared map[string]string // name -> SQL
	queries  int64
	lastUsed time.Time
}

// prepare stores (or replaces) a named statement.
func (ss *session) prepare(name, sql string) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	ss.prepared[name] = sql
}

// statement resolves a prepared name to its SQL.
func (ss *session) statement(name string) (string, bool) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	sql, ok := ss.prepared[name]
	return sql, ok
}

// touch records one query against the session.
func (ss *session) touch() {
	ss.mu.Lock()
	ss.queries++
	ss.lastUsed = time.Now()
	ss.mu.Unlock()
}

// snapshot captures the session for /debug/sessions.
func (ss *session) snapshot() sessionInfo {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return sessionInfo{
		ID:       ss.id,
		Tenant:   ss.opts.Tenant,
		Tier:     ss.opts.Tier,
		Par:      ss.opts.Parallelism,
		Timeout:  ss.opts.Timeout.String(),
		Prepared: len(ss.prepared),
		Queries:  ss.queries,
		Created:  ss.created,
		LastUsed: ss.lastUsed,
	}
}

// sessionInfo is one row of the /debug/sessions listing.
type sessionInfo struct {
	ID       string    `json:"id"`
	Tenant   string    `json:"tenant,omitempty"`
	Tier     core.Tier `json:"tier,omitempty"`
	Par      int       `json:"parallelism,omitempty"`
	Timeout  string    `json:"timeout"`
	Prepared int       `json:"prepared"`
	Queries  int64     `json:"queries"`
	Created  time.Time `json:"created"`
	LastUsed time.Time `json:"last_used"`
}

// sessionTable is the concurrent session registry.
type sessionTable struct {
	limit int

	mu sync.Mutex
	m  map[string]*session
}

func newSessionTable(limit int) *sessionTable {
	return &sessionTable{limit: limit, m: map[string]*session{}}
}

// open creates a session over a view of the shared instance.
func (t *sessionTable) open(base *engines.Instance, opts SessionOptions) (*session, error) {
	ss := &session{
		id:       newSessionID(),
		opts:     opts,
		inst:     base.SessionView(opts.Tier, opts.Parallelism, opts.Morsel),
		created:  time.Now(),
		prepared: map[string]string{},
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.m) >= t.limit {
		return nil, fmt.Errorf("server: session limit %d reached", t.limit)
	}
	t.m[ss.id] = ss
	gSessions.Set(int64(len(t.m)))
	return ss, nil
}

// get resolves a session ID.
func (t *sessionTable) get(id string) (*session, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ss, ok := t.m[id]
	return ss, ok
}

// close removes a session; reports whether it existed.
func (t *sessionTable) close(id string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	_, ok := t.m[id]
	delete(t.m, id)
	gSessions.Set(int64(len(t.m)))
	return ok
}

// closeAll empties the table (server shutdown).
func (t *sessionTable) closeAll() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.m = map[string]*session{}
	gSessions.Set(0)
}

// list snapshots every session, for /debug/sessions.
func (t *sessionTable) list() []sessionInfo {
	t.mu.Lock()
	sessions := make([]*session, 0, len(t.m))
	for _, ss := range t.m {
		sessions = append(sessions, ss)
	}
	t.mu.Unlock()
	out := make([]sessionInfo, 0, len(sessions))
	for _, ss := range sessions {
		out = append(out, ss.snapshot())
	}
	return out
}

// costTracker is the shedding cost model: an EWMA of observed wall
// time per normalized SQL text. A query never seen before estimates
// zero (cheap to admit — the controller only sheds under contention,
// and an optimistic first admission is what populates the model).
type costTracker struct {
	mu sync.Mutex
	m  map[string]float64
}

// costTrackerCap bounds the tracker; when full, it resets (the EWMA
// rebuilds within a few queries and correctness never depends on it).
const costTrackerCap = 4096

// costEWMAAlpha weights the newest observation.
const costEWMAAlpha = 0.3

func newCostTracker() *costTracker {
	return &costTracker{m: map[string]float64{}}
}

func (c *costTracker) estimate(sql string) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m[sql]
}

func (c *costTracker) observe(sql string, nanos float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.m) >= costTrackerCap {
		c.m = map[string]float64{}
	}
	if prev, ok := c.m[sql]; ok {
		c.m[sql] = prev + costEWMAAlpha*(nanos-prev)
		return
	}
	c.m[sql] = nanos
}
