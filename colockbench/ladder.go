package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"sort"
	"strings"
	"time"

	"colock/client"
	"colock/internal/core"
	"colock/internal/lock"
	"colock/internal/server"
	"colock/internal/txn"
	"colock/internal/wire"
	"colock/internal/workload"
)

// The ladder prices the remote-read transaction stream at each entry
// point, from the lock manager up to the client over loopback, on one
// goroutine. The difference between adjacent rungs is the self time of
// the layer in between.
var ladderRungs = []string{"lock", "core", "txn", "server", "client"}

// ladderConfig sets how long the ladder measures. Each round runs every
// rung for batch transactions, alternating the rung order between rounds,
// and each rung reports its median round, so that load from outside the
// benchmark falls on all rungs alike.
type ladderConfig struct {
	rounds int
	batch  int
}

var defaultLadder = ladderConfig{rounds: 60, batch: 16}

// ladderWarmTxns is how many transactions each rung runs before timing.
const ladderWarmTxns = 100

// acquire is one lock-manager request the protocol made.
type acquire struct {
	res  lock.Resource
	mode lock.Mode
}

// grantRecorder collects the grants and conversions of the transaction
// in progress.
type grantRecorder struct{ acqs []acquire }

func (g *grantRecorder) Record(e lock.Event) {
	if e.Kind == "grant" || e.Kind == "convert" {
		g.acqs = append(g.acqs, acquire{e.Resource, e.Mode})
	}
}

// runLadder returns microseconds per transaction for every rung.
func runLadder(seed int64, cfg ladderConfig) (map[string]float64, error) {
	scripts := workloadByName("remote-read").inputs(seed).scripts
	st := workload.Generate(database)
	core.CollectStatistics(st)
	nm := core.NewNamer(st.Catalog(), false)
	var managers []*lock.Manager
	newProto := func(opts lock.Options) *core.Protocol {
		m := lock.NewManager(opts)
		managers = append(managers, m)
		return core.NewProtocol(m, st, nm, core.Options{})
	}
	defer func() {
		for _, m := range managers {
			m.Close()
		}
	}()

	// Record the resource set the protocol acquires for each script.
	rec := &grantRecorder{}
	rp := newProto(lock.Options{Sinks: []lock.EventSink{rec}})
	sets := make([][]acquire, len(scripts))
	for i, s := range scripts {
		id := lock.TxnID(i + 1)
		for _, op := range s {
			if err := rp.LockPath(id, op.Path, lock.S); err != nil {
				return nil, err
			}
		}
		sets[i] = append([]acquire(nil), rec.acqs...)
		rec.acqs = rec.acqs[:0]
		rp.Release(id)
	}

	ctx := context.Background()
	lockMgr := lock.NewManager(lock.Options{})
	managers = append(managers, lockMgr)
	coreProto := newProto(lock.Options{})
	tm := txn.NewManager(newProto(lock.Options{}), st)
	// A long lease: the raw connection sends no keepalive between slices.
	srv := server.New(txn.NewManager(newProto(lock.Options{}), st), server.Options{Lease: time.Minute})
	if err := srv.Serve("127.0.0.1:0"); err != nil {
		return nil, err
	}
	defer srv.Close()
	raw, err := dialRaw(srv.Addr())
	if err != nil {
		return nil, err
	}
	defer raw.close()
	cl, err := client.Dial(srv.Addr(), client.Options{})
	if err != nil {
		return nil, err
	}
	defer cl.Close()

	var nextID lock.TxnID
	rungs := map[string]func(i int) error{
		"lock": func(i int) error {
			nextID++
			for _, a := range sets[i] {
				if err := lockMgr.AcquireCtx(ctx, nextID, a.res, a.mode); err != nil {
					return err
				}
			}
			lockMgr.ReleaseAll(nextID)
			return nil
		},
		"core": func(i int) error {
			nextID++
			for _, op := range scripts[i] {
				if err := coreProto.LockPath(nextID, op.Path, lock.S); err != nil {
					return err
				}
			}
			coreProto.Release(nextID)
			return nil
		},
		"txn": func(i int) error {
			t := tm.Begin()
			for _, op := range scripts[i] {
				if err := t.LockPath(ctx, op.Path, lock.S); err != nil {
					t.Abort()
					return err
				}
			}
			return t.Commit()
		},
		"server": func(i int) error { return raw.txn(scripts[i]) },
		"client": func(i int) error {
			t, err := cl.Begin(ctx)
			if err != nil {
				return err
			}
			for _, op := range scripts[i] {
				if err := t.LockPath(ctx, op.Path, lock.S); err != nil {
					t.Abort()
					return err
				}
			}
			return t.Commit()
		},
	}

	next := map[string]int{}
	runBatch := func(rung string, n int) (time.Duration, error) {
		fn := rungs[rung]
		start := time.Now()
		for k := 0; k < n; k++ {
			if err := fn(next[rung] % len(scripts)); err != nil {
				return 0, fmt.Errorf("%s rung: %w", rung, err)
			}
			next[rung]++
		}
		return time.Since(start), nil
	}
	for _, rung := range ladderRungs {
		if _, err := runBatch(rung, ladderWarmTxns); err != nil {
			return nil, err
		}
	}
	per := map[string][]float64{}
	order := append([]string(nil), ladderRungs...)
	for round := 0; round < cfg.rounds; round++ {
		for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
			order[i], order[j] = order[j], order[i]
		}
		for _, rung := range order {
			d, err := runBatch(rung, cfg.batch)
			if err != nil {
				return nil, err
			}
			per[rung] = append(per[rung], float64(d.Nanoseconds())/1e3/float64(cfg.batch))
		}
	}
	out := map[string]float64{}
	for rung, v := range per {
		out[rung] = median(v)
	}
	return out, nil
}

func ladderString(l map[string]float64) string {
	parts := make([]string, len(ladderRungs))
	for i, r := range ladderRungs {
		parts[i] = fmt.Sprintf("%s %.1f", r, l[r])
	}
	return strings.Join(parts, " <= ") + " us/txn"
}

// rawConn speaks the wire protocol directly, one request at a time, with
// no client package in between. Replies are read by their own goroutine,
// as in any pipelined wire client: a caller that parks in a socket read
// itself measures a few percent slower than one that waits on a channel.
type rawConn struct {
	conn    net.Conn
	bw      *bufio.Writer
	replies chan wire.Frame // closed when the reader stops
	readErr error           // why the reader stopped; read after replies is closed
	req     uint64
}

func dialRaw(addr string) (*rawConn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	if err := wire.WriteHello(conn, wire.Hello{Version: wire.Version}); err != nil {
		conn.Close()
		return nil, err
	}
	wl, err := wire.ReadWelcome(conn)
	if err != nil || wl.Code != wire.WelcomeOK {
		conn.Close()
		return nil, fmt.Errorf("handshake refused (code %d): %v", wl.Code, err)
	}
	c := &rawConn{conn: conn, bw: bufio.NewWriter(conn), replies: make(chan wire.Frame, 1)}
	go c.readLoop()
	return c, nil
}

func (c *rawConn) readLoop() {
	defer close(c.replies)
	br := bufio.NewReaderSize(c.conn, 32<<10)
	for {
		f, err := wire.ReadFrame(br)
		if err != nil {
			c.readErr = err
			return
		}
		c.replies <- f
	}
}

// close closes the connection and waits for the reader to stop.
func (c *rawConn) close() {
	_ = c.conn.Close() // the reader's next read fails and ends it
	for range c.replies {
	}
}

func (c *rawConn) call(typ byte, payload []byte, want byte) (wire.Frame, error) {
	c.req++
	if err := wire.WriteFrame(c.bw, typ, c.req, payload); err != nil {
		return wire.Frame{}, err
	}
	if err := c.bw.Flush(); err != nil {
		return wire.Frame{}, err
	}
	f, ok := <-c.replies
	if !ok {
		return f, fmt.Errorf("connection lost: %w", c.readErr)
	}
	if f.ReqID != c.req || f.Type != want {
		return f, fmt.Errorf("unexpected %s reply to request %d", wire.TypeName(f.Type), f.ReqID)
	}
	return f, nil
}

func (c *rawConn) txn(script []workload.Op) error {
	f, err := c.call(wire.TBegin, wire.BeginReq{}.Encode(), wire.TTxn)
	if err != nil {
		return err
	}
	m, err := wire.DecodeTxnReply(f.Payload)
	if err != nil {
		return err
	}
	for _, op := range script {
		req := wire.LockReq{Txn: m.Txn, Node: wire.NodeRef{Level: wire.NodePath, Path: op.Path}, Mode: lock.S}
		if _, err := c.call(wire.TLockPath, req.Encode(), wire.TOK); err != nil {
			return err
		}
	}
	_, err = c.call(wire.TCommit, wire.TxnReq{Txn: m.Txn}.Encode(), wire.TOK)
	return err
}

// codecSlice is how long each of codecNsPerOp's three slices runs.
const codecSlice = 100 * time.Millisecond

// codecNsPerOp times the in-memory encode, frame and decode of the
// remote-read LockReq stream and its OK replies: the wire codec's cost per
// acquire without a socket. It reports the median of three slices.
func codecNsPerOp(seed int64) (float64, error) {
	scripts := workloadByName("remote-read").inputs(seed).scripts
	var reqs []wire.LockReq
	for i, s := range scripts[:256] {
		for _, op := range s {
			reqs = append(reqs, wire.LockReq{Txn: uint64(i + 1), Node: wire.NodeRef{Level: wire.NodePath, Path: op.Path}, Mode: lock.S})
		}
	}
	var buf bytes.Buffer
	one := func(id uint64, req wire.LockReq) error {
		buf.Reset()
		if err := wire.WriteFrame(&buf, wire.TLockPath, id, req.Encode()); err != nil {
			return err
		}
		f, err := wire.ReadFrame(&buf)
		if err != nil {
			return err
		}
		if _, err := wire.DecodeLockReq(f.Payload); err != nil {
			return err
		}
		if err := wire.WriteFrame(&buf, wire.TOK, id, nil); err != nil {
			return err
		}
		_, err = wire.ReadFrame(&buf)
		return err
	}
	var slices []float64
	for s := 0; s < 3; s++ {
		start := time.Now()
		n := 0
		for time.Since(start) < codecSlice {
			for i, req := range reqs {
				if err := one(uint64(i+1), req); err != nil {
					return 0, err
				}
			}
			n += len(reqs)
		}
		slices = append(slices, float64(time.Since(start).Nanoseconds())/float64(n))
	}
	sort.Float64s(slices)
	return slices[1], nil
}
