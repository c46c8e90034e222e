package ffi

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"qfusor/internal/data"
	"qfusor/internal/faultinject"
	"qfusor/internal/obs"
	"qfusor/internal/resilience"
)

// Chaos hooks on the two sides of the process boundary: the host-side
// transport (fires in roundTrip before dispatch) and the UDF-side
// worker (fires while serving a request; honours worker-kill).
var (
	FaultProcTransport = faultinject.Register("proc.transport")
	FaultProcWorker    = faultinject.Register("proc.worker")
)

// Supervision errors. All are typed sentinels so callers can decide
// retry/fallback with errors.Is.
var (
	// ErrInvokerClosed reports a call on a Close()d ProcessInvoker.
	ErrInvokerClosed = errors.New("ffi: process invoker is closed")
	// ErrWorkerCrashed reports that the UDF worker died mid-request (the
	// host saw the pipe close); the supervisor respawns a replacement.
	ErrWorkerCrashed = errors.New("ffi: process worker crashed")
	// ErrCallTimeout reports that one round trip exceeded CallTimeout.
	ErrCallTimeout = errors.New("ffi: process call timed out")
)

var (
	mProcRespawns = obs.Default.Counter("ffi.proc_worker_respawns")
	mProcRetries  = obs.Default.Counter("ffi.proc_call_retries")
	// gProcWorkers counts live UDF worker goroutines process-wide; it
	// drops when a worker dies and recovers when the supervisor respawns
	// it, so /metrics shows supervision in action.
	gProcWorkers = obs.Default.Gauge("ffi.proc_live_workers")
)

// Retry-backoff bounds for idempotent scalar batches.
const (
	procRetryBase = 500 * time.Microsecond
	procRetryMax  = 20 * time.Millisecond
)

// ProcessInvoker models PostgreSQL's out-of-process UDF execution: every
// batch of arguments is encoded into one message, shipped to a worker
// ("the pl/python process"), decoded there, executed, and the results
// make the same trip back in a fresh message. A crossing therefore costs
// the chunk codec's work on the payload, both ways, plus two channel
// hand-offs: genuine CPU time in proportion to the bytes shipped, with
// no buffer whose size is independent of the payload.
//
// The worker pool is supervised: a worker that panics or is killed
// mid-request fails that request with ErrWorkerCrashed (the host
// noticing the dead pipe) and is respawned; idempotent scalar batches
// are re-dispatched with bounded backoff. CallTimeout bounds each round
// trip, and calls after Close fail fast with ErrInvokerClosed.
type ProcessInvoker struct {
	mu     sync.Mutex
	req    chan procRequest
	done   chan struct{} // closed by Close; unblocks dispatch and idle workers
	closed bool
	// BatchRows bounds how many rows travel per message (Postgres sends
	// row-by-row; a batch of 1 reproduces that, larger batches model
	// result-set chunking).
	BatchRows int
	// Workers is the UDF-side pool size. One worker models Postgres's
	// single backend; a pool models Spark's executor fan-out, so the
	// engine's morsel workers don't serialize behind one process.
	Workers int
	// CallTimeout bounds a single round trip (dispatch + execution +
	// reply); 0 means no bound.
	CallTimeout time.Duration
	// MaxRetries is how many times a scalar batch is re-dispatched after
	// a worker crash or timeout. Negative disables retry.
	MaxRetries int

	respawns atomic.Int64
}

type procRequest struct {
	kind     UDFKind
	udf      *UDF
	payload  []byte
	groupIDs []int
	groups   int
	extra    []data.Value
	resp     chan procResponse
}

type procResponse struct {
	payload []byte
	err     error
}

// NewProcessInvoker starts a single worker goroutine (one UDF process).
func NewProcessInvoker(batchRows int) *ProcessInvoker {
	return NewProcessInvokerN(batchRows, 1)
}

// NewProcessInvokerN starts a pool of supervised workers draining the
// shared request channel. Each request is self-contained (its own
// response channel), so concurrent engine-side callers round-trip in
// parallel up to the pool size.
func NewProcessInvokerN(batchRows, workers int) *ProcessInvoker {
	if batchRows <= 0 {
		batchRows = 1024
	}
	if workers < 1 {
		workers = 1
	}
	p := &ProcessInvoker{
		req:        make(chan procRequest),
		done:       make(chan struct{}),
		BatchRows:  batchRows,
		Workers:    workers,
		MaxRetries: 2,
	}
	for i := 0; i < workers; i++ {
		go p.supervise()
	}
	return p
}

// Close shuts the pool down. Idempotent; calls made after Close (or
// blocked in dispatch when it lands) fail with ErrInvokerClosed instead
// of hanging on a drained pool.
func (p *ProcessInvoker) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.closed {
		p.closed = true
		close(p.done)
	}
}

// Respawns reports how many crashed workers the supervisor replaced.
func (p *ProcessInvoker) Respawns() int64 { return p.respawns.Load() }

// Name implements Invoker.
func (*ProcessInvoker) Name() string { return "process" }

// supervise keeps one worker slot alive: each time the worker dies
// mid-request (panic or injected kill), a replacement is spawned, until
// Close.
func (p *ProcessInvoker) supervise() {
	gProcWorkers.Add(1)
	for p.runWorker() {
		gProcWorkers.Add(-1)
		p.respawns.Add(1)
		mProcRespawns.Inc()
		gProcWorkers.Add(1)
	}
	gProcWorkers.Add(-1)
}

// runWorker is the UDF-side of the "process boundary". It reports true
// when the worker died and should be respawned, false on clean
// shutdown. A panic anywhere in UDF execution is the process crashing:
// the deferred recover answers the in-flight request with
// ErrWorkerCrashed — the host's view of the pipe closing — so no caller
// is left hanging.
func (p *ProcessInvoker) runWorker() (died bool) {
	var cur *procRequest
	defer func() {
		if r := recover(); r != nil {
			died = true
			if cur != nil {
				cur.resp <- procResponse{err: crashError(r)}
			}
		}
	}()
	var inner VectorInvoker
	for {
		select {
		case <-p.done:
			return false
		case r := <-p.req:
			cur = &r
			if faultinject.Armed() {
				if err := faultinject.Fire(FaultProcWorker); err != nil {
					if faultinject.IsWorkerKill(err) {
						r.resp <- procResponse{err: crashError(err)}
						return true
					}
					r.resp <- procResponse{err: err}
					cur = nil
					continue
				}
			}
			r.resp <- p.serve(&inner, r)
			cur = nil
		}
	}
}

// crashError wraps a worker's dying gasp so the chain keeps both the
// ErrWorkerCrashed sentinel and the underlying cause.
func crashError(v any) error {
	if err, ok := v.(error); ok {
		return fmt.Errorf("%w: %w", ErrWorkerCrashed, err)
	}
	return fmt.Errorf("%w: panic: %v", ErrWorkerCrashed, v)
}

// serve decodes, executes and re-encodes one request.
func (p *ProcessInvoker) serve(inner *VectorInvoker, r procRequest) procResponse {
	ch, err := data.ParseChunk(r.payload)
	if err != nil {
		return procResponse{err: fmt.Errorf("ffi: worker decode: %w", err)}
	}
	var out *data.Chunk
	switch r.kind {
	case Scalar:
		col, cerr := inner.CallScalar(r.udf, ch.Cols, ch.NumRows())
		if cerr != nil {
			return procResponse{err: cerr}
		}
		out = data.NewChunk(col)
	case Aggregate:
		vals, cerr := inner.CallAggregate(r.udf, ch.Cols, ch.NumRows(), r.groupIDs, r.groups)
		if cerr != nil {
			return procResponse{err: cerr}
		}
		out = data.NewChunk(UnboxValues(r.udf.Name, r.udf.OutKind(), vals))
	case Table:
		var cerr error
		out, cerr = inner.CallTable(r.udf, ch, r.extra)
		if cerr != nil {
			return procResponse{err: cerr}
		}
	case Expand:
		// The host sends one input row per message, so the parent map
		// is all zeros and stays worker-side.
		var cerr error
		out, _, cerr = inner.CallExpand(r.udf, ch.Cols, ch.NumRows())
		if cerr != nil {
			return procResponse{err: cerr}
		}
	}
	return procResponse{payload: data.AppendChunk(nil, out)}
}

// roundTrip ships one encoded message to the worker pool and decodes
// the reply, honouring Close and CallTimeout on both the dispatch and
// the wait. The payload is never written after encoding: the worker
// only reads it, and a retry resends the same bytes.
func (p *ProcessInvoker) roundTrip(r procRequest) (*data.Chunk, error) {
	if faultinject.Armed() {
		if err := faultinject.Fire(FaultProcTransport); err != nil {
			return nil, err
		}
	}
	r.resp = make(chan procResponse, 1)

	var timeout <-chan time.Time
	if p.CallTimeout > 0 {
		t := time.NewTimer(p.CallTimeout)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case p.req <- r:
	case <-p.done:
		return nil, ErrInvokerClosed
	case <-timeout:
		return nil, fmt.Errorf("%w (dispatch after %v)", ErrCallTimeout, p.CallTimeout)
	}
	// The request is in a worker's hands now: even if Close lands, that
	// worker finishes and replies, so only the timeout abandons the wait.
	var resp procResponse
	select {
	case resp = <-r.resp:
	case <-timeout:
		return nil, fmt.Errorf("%w (after %v)", ErrCallTimeout, p.CallTimeout)
	}
	mIPCTrips.Inc()
	mIPCBytes.Add(int64(len(r.payload) + len(resp.payload)))
	if resp.err != nil {
		return nil, resp.err
	}
	out, err := data.ParseChunk(resp.payload)
	if err != nil {
		return nil, fmt.Errorf("ffi: decode response: %w", err)
	}
	return out, nil
}

// retryable reports whether a failed round trip may be re-dispatched:
// only transient supervision failures (crash, timeout) qualify; UDF
// errors are deterministic and must not be retried.
func retryable(err error) bool {
	return errors.Is(err, ErrWorkerCrashed) || errors.Is(err, ErrCallTimeout)
}

// scalarTrip runs one scalar batch with bounded retry-with-backoff:
// scalar UDFs are pure, so a batch lost to a worker crash or timeout is
// safely re-dispatched to the respawned worker.
func (p *ProcessInvoker) scalarTrip(u *UDF, batch []*data.Column) (*data.Chunk, error) {
	msg := procRequest{kind: Scalar, udf: u, payload: data.AppendChunk(nil, data.NewChunk(batch...))}
	res, err := p.roundTrip(msg)
	for attempt := 0; err != nil && retryable(err) && attempt < p.MaxRetries; attempt++ {
		// Full jitter: a worker crash typically kills every in-flight
		// batch at once, and deterministic backoff would march all their
		// retries onto the freshly respawned worker in lockstep.
		time.Sleep(resilience.BackoffFullJitter(attempt, procRetryBase, procRetryMax))
		mProcRetries.Inc()
		res, err = p.roundTrip(msg)
	}
	return res, err
}

// CallScalar implements Invoker. Batches of BatchRows rows cross the
// boundary per message.
func (p *ProcessInvoker) CallScalar(u *UDF, args []*data.Column, n int) (*data.Column, error) {
	start := time.Now()
	wallBefore := u.Stats.WallNanos.Load()
	out := data.NewColumnCap(u.Name, u.OutKind(), n)
	for lo := 0; lo < n; lo += p.BatchRows {
		hi := lo + p.BatchRows
		if hi > n {
			hi = n
		}
		batch := make([]*data.Column, len(args))
		for i, c := range args {
			batch[i] = c.Slice(lo, hi)
		}
		res, err := p.scalarTrip(u, batch)
		if err != nil {
			return nil, err
		}
		out.AppendColumn(res.Cols[0])
	}
	// The worker already recorded per-row stats; the transport's share of
	// the elapsed time (elapsed minus the UDF wall time this call added)
	// is wrapper cost. Wall includes wrap on every transport, so it is
	// added to both. Concurrent callers make the delta approximate.
	if wrap := time.Since(start) - time.Duration(u.Stats.WallNanos.Load()-wallBefore); wrap > 0 {
		u.addTime(wrap, wrap)
	}
	return out, nil
}

// CallAggregate implements Invoker (one message, group ids attached).
func (p *ProcessInvoker) CallAggregate(u *UDF, args []*data.Column, n int, groupIDs []int, g int) ([]data.Value, error) {
	res, err := p.roundTrip(procRequest{kind: Aggregate, udf: u, groupIDs: groupIDs, groups: g,
		payload: data.AppendChunk(nil, data.NewChunk(args...))})
	if err != nil {
		return nil, err
	}
	return BoxColumn(res.Cols[0], res.NumRows()), nil
}

// CallExpand implements Invoker. The expansion happens worker-side, one
// input row per message, mirroring Postgres's per-call set-returning
// function protocol; the replies concatenate into the output columns.
func (p *ProcessInvoker) CallExpand(u *UDF, args []*data.Column, n int) (*data.Chunk, []int, error) {
	out := outColumns(u)
	var parent []int
	for i := 0; i < n; i++ {
		batch := make([]*data.Column, len(args))
		for j, c := range args {
			batch[j] = c.Slice(i, i+1)
		}
		res, err := p.roundTrip(procRequest{kind: Expand, udf: u, payload: data.AppendChunk(nil, data.NewChunk(batch...))})
		if err != nil {
			return nil, nil, err
		}
		for j, c := range out {
			c.AppendColumn(res.Cols[j])
		}
		for m := res.NumRows(); m > 0; m-- {
			parent = append(parent, i)
		}
	}
	return data.NewChunk(out...), parent, nil
}

// CallTable implements Invoker.
func (p *ProcessInvoker) CallTable(u *UDF, input *data.Chunk, extra []data.Value) (*data.Chunk, error) {
	return p.roundTrip(procRequest{kind: Table, udf: u, extra: extra, payload: data.AppendChunk(nil, input)})
}
