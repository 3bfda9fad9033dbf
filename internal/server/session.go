package server

import (
	"bufio"
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"colock/internal/store"
	"colock/internal/txn"
	"colock/internal/wire"
)

// session is one connection's server-side state: the transactions it has
// begun, its lease clock, and the write half of the framing. Requests are
// dispatched to a pool of per-session worker goroutines (the wire protocol
// pipelines on request ids), bounded by the max-inflight semaphore —
// except Commit/Abort, which run on their own goroutines outside the cap
// (see run) — and operations on one transaction serialize on its
// per-transaction mutex because a txn.Txn is a single thread of execution.
// The pool is grown lazily and workers persist for the session's lifetime
// — the lock protocol's recursion grows a goroutine stack once instead of
// on every request, which is a measurable share of the per-frame cost.
type session struct {
	s    *Server
	id   uint64
	conn net.Conn
	fw   *wire.FrameWriter

	// ctx is canceled when the session ends (client gone, lease missed,
	// server shutdown); every blocking acquisition runs under it, so
	// teardown withdraws parked waiters instead of orphaning them.
	ctx    context.Context
	cancel context.CancelFunc

	seen atomic.Int64 // unix nanos of the last frame read

	wclosed atomic.Bool

	inflight chan struct{}   // max-inflight semaphore
	reqCh    chan wire.Frame // dispatch queue, capacity == max-inflight
	workers  atomic.Int32    // live pool goroutines
	idle     atomic.Int32    // pool goroutines parked on reqCh
	reqWG    sync.WaitGroup

	mu      sync.Mutex
	txns    map[uint64]*sessTxn
	expired bool

	finalizeOnce sync.Once
}

// sessTxn pairs a transaction with the mutex that serializes its wire
// operations.
type sessTxn struct {
	mu sync.Mutex
	t  *txn.Txn
}

func newSession(s *Server, id uint64, conn net.Conn) *session {
	ctx, cancel := context.WithCancel(context.Background())
	sess := &session{
		s:        s,
		id:       id,
		conn:     conn,
		fw:       wire.NewFrameWriter(conn),
		ctx:      ctx,
		cancel:   cancel,
		inflight: make(chan struct{}, s.opts.MaxInflight),
		reqCh:    make(chan wire.Frame, s.opts.MaxInflight),
		txns:     make(map[uint64]*sessTxn),
	}
	sess.touch()
	return sess
}

func (sess *session) touch()              { sess.seen.Store(time.Now().UnixNano()) }
func (sess *session) lastSeen() time.Time { return time.Unix(0, sess.seen.Load()) }

func (sess *session) txnCount() int {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return len(sess.txns)
}

// run reads frames until the connection dies, dispatching each request.
// Pings answer inline — the keepalive must never queue behind blocked
// lock acquisitions. Commit and Abort bypass the max-inflight cap on
// their own goroutines: a finish frame releases locks other sessions
// (or other transactions pipelined on this one) are waiting on, so
// refusing it busy while every slot is held by a blocked acquisition
// would leave the transaction — and its locks — stranded. Everything
// else takes an inflight slot or is refused busy. Reads are buffered:
// one syscall drains every frame a pipelining client has queued.
func (sess *session) run() {
	br := bufio.NewReaderSize(sess.conn, 32<<10)
	for {
		f, err := wire.ReadFrame(br)
		if err != nil {
			return
		}
		sess.s.framesRead.Add(1)
		sess.touch()
		if f.Type == wire.TPing {
			sess.reply(&request{id: f.ReqID}, wire.TPong, wire.Pong{Lease: sess.s.opts.Lease}.Encode())
			continue
		}
		if f.Type == wire.TCommit || f.Type == wire.TAbort {
			sess.reqWG.Add(1)
			go func(f wire.Frame) {
				defer sess.reqWG.Done()
				sess.dispatch(&request{id: f.ReqID}, f)
			}(f)
			continue
		}
		select {
		case sess.inflight <- struct{}{}:
		default:
			sess.s.busyRefusals.Add(1)
			sess.replyErr(&request{id: f.ReqID}, wire.ErrPayload{
				Cause: wire.CauseBusy, Retryable: true,
				Message: "session exceeded max-inflight requests",
			})
			continue
		}
		sess.reqWG.Add(1)
		// Holding an inflight slot guarantees reqCh has room, so the send
		// cannot block. Claim a parked worker by atomically taking an idle
		// credit; workers post a credit each time they park, so a won claim
		// means one worker is committed to receive exactly one more frame.
		// A lost claim spawns a worker — unless the pool is already at the
		// inflight cap, in which case pigeonhole guarantees pickup: every
		// enqueued frame holds a slot until its reply, so with cap-many
		// workers at least one is not blocked in a handler and will return
		// to receive.
		if sess.idle.Add(-1) < 0 {
			sess.idle.Add(1)
			if int(sess.workers.Load()) < cap(sess.inflight) {
				sess.workers.Add(1)
				go sess.worker()
			}
		}
		sess.reqCh <- f
	}
}

// worker is one pool goroutine: it serves requests until the session
// ends. The idle credit is posted only after a request completes — a
// freshly spawned worker owes its first receive to the frame that
// spawned it, and run() consumes credits when claiming a parked worker.
func (sess *session) worker() {
	for {
		select {
		case f := <-sess.reqCh:
			r := request{id: f.ReqID, slot: true}
			sess.dispatch(&r, f)
			if r.slot {
				<-sess.inflight
			}
			sess.reqWG.Done()
			sess.idle.Add(1)
		case <-sess.ctx.Done():
			return
		}
	}
}

// request is one request frame being answered. slot is set while the
// request holds a max-inflight slot; reply gives the slot back before it
// writes, so a client that sends its next request only after reading the
// reply never finds its previous request still counted against the cap.
type request struct {
	id   uint64
	slot bool
}

// reply writes one reply frame; writes after close are dropped (the peer
// is gone and teardown owns the conn). A write error is session-fatal:
// the connection is cut so the read loop stops accepting requests whose
// outcomes the client could never hear, and teardown aborts the
// session's transactions promptly instead of waiting for the peer to
// notice the broken half on its own.
func (sess *session) reply(r *request, typ byte, payload []byte) {
	if r.slot {
		r.slot = false
		<-sess.inflight
	}
	if sess.wclosed.Load() {
		return
	}
	if err := sess.fw.WriteFrame(typ, r.id, payload); err != nil {
		sess.close()
		return
	}
	sess.s.framesWritten.Add(1)
}

func (sess *session) replyErr(r *request, p wire.ErrPayload) {
	sess.s.errorReplies.Add(1)
	sess.reply(r, wire.TErr, p.Encode())
}

// replyOutcome converts a handler result into TOK or TErr.
func (sess *session) replyOutcome(r *request, err error) {
	if err == nil {
		sess.reply(r, wire.TOK, nil)
		return
	}
	if errors.Is(err, txn.ErrNotActive) {
		// Map the txn layer's sentinel onto the wire vocabulary.
		sess.replyErr(r, wire.ErrPayload{
			Cause: wire.CauseNotActive, Message: err.Error(),
		})
		return
	}
	sess.replyErr(r, wire.PayloadOf(err))
}

// dispatch decodes and executes one request. A grammar violation is fatal
// to the session: the reply says so and the connection closes (framing
// state after a bad payload is untrustworthy).
func (sess *session) dispatch(r *request, f wire.Frame) {
	switch f.Type {
	case wire.TBegin:
		m, err := wire.DecodeBeginReq(f.Payload)
		if err != nil {
			sess.protocolViolation(r, err)
			return
		}
		sess.handleBegin(r, m)
	case wire.TLock, wire.TLockPath:
		m, err := wire.DecodeLockReq(f.Payload)
		if err != nil {
			sess.protocolViolation(r, err)
			return
		}
		sess.handleLock(r, m)
	case wire.TDowngrade:
		m, err := wire.DecodeDowngradeReq(f.Payload)
		if err != nil {
			sess.protocolViolation(r, err)
			return
		}
		sess.handleDowngrade(r, m)
	case wire.TRelease:
		m, err := wire.DecodeReleaseReq(f.Payload)
		if err != nil {
			sess.protocolViolation(r, err)
			return
		}
		sess.handleRelease(r, m)
	case wire.TCommit, wire.TAbort:
		m, err := wire.DecodeTxnReq(f.Payload)
		if err != nil {
			sess.protocolViolation(r, err)
			return
		}
		sess.handleFinish(r, m, f.Type == wire.TCommit)
	default:
		sess.protocolViolation(r, errors.New("unknown request type "+wire.TypeName(f.Type)))
	}
}

func (sess *session) protocolViolation(r *request, err error) {
	sess.replyErr(r, wire.ErrPayload{
		Cause: wire.CauseProtocol, Message: err.Error(),
	})
	_ = sess.conn.Close() // unblocks run(); teardown aborts the txns
}

func (sess *session) handleBegin(r *request, m wire.BeginReq) {
	if sess.s.Draining() {
		sess.replyErr(r, wire.ErrPayload{
			Cause: wire.CauseDraining, Retryable: true,
			Message: "server draining: no new transactions",
		})
		return
	}
	var t *txn.Txn
	if m.Long {
		// Long transactions bypass admission, mirroring BeginLong locally.
		t = sess.s.tm.BeginLong()
	} else {
		var err error
		t, err = sess.s.tm.BeginCtx(sess.ctx)
		if err != nil {
			sess.replyErr(r, wire.PayloadOf(err))
			return
		}
	}
	st := &sessTxn{t: t}
	sess.mu.Lock()
	if sess.expired {
		// Lost the race with teardown: don't leak the transaction.
		sess.mu.Unlock()
		t.Abort()
		sess.replyErr(r, wire.ErrPayload{Cause: wire.CauseExpired, Message: "session expired"})
		return
	}
	sess.txns[uint64(t.ID())] = st
	sess.mu.Unlock()
	sess.reply(r, wire.TTxn, wire.TxnReply{Txn: uint64(t.ID())}.Encode())
}

// lookup resolves a wire txn id to this session's transaction. Ids from
// other sessions resolve to not-active — sessions cannot operate on
// transactions they do not own.
func (sess *session) lookup(id uint64) *sessTxn {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.txns[id]
}

func (sess *session) handleLock(r *request, m wire.LockReq) {
	st := sess.lookup(m.Txn)
	if st == nil {
		sess.replyErr(r, wire.ErrPayload{
			Cause: wire.CauseNotActive, Txn: m.Txn,
			Message: "transaction not active in this session",
		})
		return
	}
	opts := make([]txn.Option, 0, 2)
	if m.NoFollow {
		opts = append(opts, txn.WithNoFollow())
	}
	if m.Timeout > 0 {
		opts = append(opts, txn.WithTimeout(m.Timeout))
	}
	st.mu.Lock()
	err := st.t.Lock(sess.ctx, m.Node.Node(), m.Mode, opts...)
	st.mu.Unlock()
	sess.replyOutcome(r, err)
}

func (sess *session) handleDowngrade(r *request, m wire.DowngradeReq) {
	st := sess.lookup(m.Txn)
	if st == nil {
		sess.replyErr(r, wire.ErrPayload{
			Cause: wire.CauseNotActive, Txn: m.Txn,
			Message: "transaction not active in this session",
		})
		return
	}
	keep := make([]store.Path, 0, len(m.Keep))
	for _, p := range m.Keep {
		keep = append(keep, store.Path(p))
	}
	st.mu.Lock()
	err := st.t.DeEscalate(m.Node.Node(), keep)
	st.mu.Unlock()
	sess.replyOutcome(r, err)
}

func (sess *session) handleRelease(r *request, m wire.ReleaseReq) {
	st := sess.lookup(m.Txn)
	if st == nil {
		sess.replyErr(r, wire.ErrPayload{
			Cause: wire.CauseNotActive, Txn: m.Txn,
			Message: "transaction not active in this session",
		})
		return
	}
	st.mu.Lock()
	err := st.t.Unlock(m.Node.Node())
	st.mu.Unlock()
	sess.replyOutcome(r, err)
}

func (sess *session) handleFinish(r *request, m wire.TxnReq, commit bool) {
	sess.mu.Lock()
	st := sess.txns[m.Txn]
	delete(sess.txns, m.Txn)
	sess.mu.Unlock()
	if st == nil {
		sess.replyErr(r, wire.ErrPayload{
			Cause: wire.CauseNotActive, Txn: m.Txn,
			Message: "transaction not active in this session",
		})
		return
	}
	st.mu.Lock()
	var err error
	if commit {
		err = st.t.Commit()
	} else {
		st.t.Abort()
	}
	st.mu.Unlock()
	sess.replyOutcome(r, err)
}

// expire enforces a missed lease: notify the client (unsolicited TErr on
// reqid 0), cut the connection, and let teardown abort the transactions.
func (sess *session) expire() {
	sess.replyErr(&request{}, wire.ErrPayload{
		Cause:   wire.CauseExpired,
		Message: "session lease expired; transactions aborted",
	})
	sess.close()
}

// close cuts the connection; run() then returns and the server finalizes.
func (sess *session) close() {
	sess.cancel()
	sess.wclosed.Store(true)
	_ = sess.conn.Close()
}

// finalize aborts whatever the session still owns. It runs exactly once,
// after the read loop has exited; canceling ctx first withdraws any
// handler still parked in a lock wait, draining reqCh accounts for
// requests no worker picked up before the cancel, and waiting for the
// workers means no goroutine touches a Txn while it is aborted here.
func (sess *session) finalize() {
	sess.finalizeOnce.Do(func() {
		sess.cancel()
	drain:
		for {
			select {
			case <-sess.reqCh:
				<-sess.inflight
				sess.reqWG.Done()
			default:
				break drain
			}
		}
		sess.reqWG.Wait()
		sess.mu.Lock()
		sess.expired = true
		txns := make([]*sessTxn, 0, len(sess.txns))
		for _, st := range sess.txns {
			txns = append(txns, st)
		}
		sess.txns = make(map[uint64]*sessTxn)
		sess.mu.Unlock()
		for _, st := range txns {
			st.t.Abort()
		}
	})
}
