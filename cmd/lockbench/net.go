package main

// Network lock-service benchmark: measures what crossing the wire costs —
// the colockd/client path of DESIGN.md §16 against the same transaction
// loop run in-process — and emits machine-readable BENCH_PR10.json.
//
// Shape: an internal/server instance on a loopback port; 1/8/32
// connections, each driving netPipelineDepth concurrent Begin → K shared
// locks → Commit transactions through the client package (request-id
// pipelining is part of the protocol — one goroutine per transaction, all
// sharing the connection), so every lock is one request frame and one
// reply frame over TCP. Locks are taken with NOFOLLOW (§4.5): the acquire
// then measures the grant path itself rather than re-deriving the
// reference closure of the locked tuple on every transaction, and the
// in-process side uses the identical option, so the comparison stays
// apples-to-apples. The in-process side runs the identical loop against
// its own txn.Manager with the same goroutine count. Measurement
// discipline is the shared paired-ABBA timer: fixed work per slice, both
// sides back-to-back in alternating order, the row reports the median
// within-pair time ratio (local over net — how many times faster the
// in-process path is) plus each side's best-slice acquire throughput and
// the network side's per-acquire latency distribution (p50/p99 over every
// slice the timer ran, calibration and warmup included).
//
// The network layer adds no lock semantics and is excluded from the
// paper's request-count experiments (E1-E8); this benchmark quantifies the
// transport cost instead: loopback goodput and per-acquire latency.

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"colock/client"
	"colock/internal/core"
	"colock/internal/lock"
	"colock/internal/metrics"
	"colock/internal/server"
	"colock/internal/store"
	"colock/internal/txn"
)

// netLocksPerTxn is K: shared locks acquired per transaction, each a full
// round trip on the network side.
const netLocksPerTxn = 16

// netPipelineDepth is the number of transactions each connection keeps in
// flight concurrently, exercising the protocol's request-id pipelining.
const netPipelineDepth = 4

// netResult is one connection-count row.
type netResult struct {
	Connections int `json:"connections"`
	// NetAcquiresPerSec is the best-slice loopback goodput: client-observed
	// Lock calls per second across all connections.
	NetAcquiresPerSec   float64 `json:"net_acquires_per_sec"`
	LocalAcquiresPerSec float64 `json:"local_acquires_per_sec"`
	// LocalOverNetRatio is the median within-pair time ratio net/local: how
	// many times faster the in-process path runs the same transactions.
	LocalOverNetRatio float64 `json:"local_over_net_ratio"`
	// Per-acquire wire latency over every measured slice, microseconds.
	NetP50Micros float64 `json:"net_p50_micros"`
	NetP99Micros float64 `json:"net_p99_micros"`
}

type netBenchReport struct {
	Benchmark     string      `json:"benchmark"`
	Description   string      `json:"description"`
	GOMAXPROCS    int         `json:"gomaxprocs"`
	Quick         bool        `json:"quick"`
	LocksPerTxn   int         `json:"locks_per_txn"`
	PipelineDepth int         `json:"pipeline_depth"`
	NoFollow      bool        `json:"nofollow"`
	Results       []netResult `json:"results"`
}

// netHarness is one live server plus a fresh in-process manager for the
// local side.
type netHarness struct {
	srv   *server.Server
	local *txn.Manager
}

func newNetHarness() (*netHarness, error) {
	build := func() *txn.Manager {
		st := store.PaperDatabase()
		nm := core.NewNamer(st.Catalog(), false)
		proto := core.NewProtocol(lock.NewManager(lock.Options{}), st, nm, core.Options{})
		return txn.NewManager(proto, st)
	}
	// Long lease: a benchmark stall must not expire sessions mid-slice.
	srv := server.New(build(), server.Options{Lease: time.Minute})
	if err := srv.Serve("127.0.0.1:0"); err != nil {
		return nil, err
	}
	return &netHarness{srv: srv, local: build()}, nil
}

func (h *netHarness) close() { h.srv.Close() }

// netBody is one network-side worker: worker id drives pipeline slot
// id%netPipelineDepth of connection id/netPipelineDepth, running one
// Begin → netLocksPerTxn NOFOLLOW S locks → Commit transaction per call and
// appending each acquire's latency (µs) to lats[id].
func netBody(clients []*client.Client, lats [][]float64) func(id int) {
	node := core.DataNode(store.P("cells", "c1"))
	ctx := context.Background()
	return func(id int) {
		t, err := clients[id/netPipelineDepth].Begin(ctx)
		if err != nil {
			panic(err)
		}
		for k := 0; k < netLocksPerTxn; k++ {
			t0 := time.Now()
			if err := t.Lock(ctx, node, lock.S, client.WithNoFollow()); err != nil {
				panic(err)
			}
			lats[id] = append(lats[id], float64(time.Since(t0).Microseconds()))
		}
		if err := t.Commit(); err != nil {
			panic(err)
		}
	}
}

// localBody is the identical transaction against the in-process manager,
// with the same NOFOLLOW acquires.
func localBody(tm *txn.Manager) func(id int) {
	node := core.DataNode(store.P("cells", "c1"))
	ctx := context.Background()
	return func(int) {
		t := tm.Begin()
		for k := 0; k < netLocksPerTxn; k++ {
			if err := t.Lock(ctx, node, lock.S, txn.WithNoFollow()); err != nil {
				panic(err)
			}
		}
		if err := t.Commit(); err != nil {
			panic(err)
		}
	}
}

func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(p*float64(len(sorted)-1))]
}

// runNetBench measures every connection count with the paired-ABBA timer
// (network against local side, both with conns×netPipelineDepth
// goroutines).
func runNetBench(sc scale) (report, error) {
	rep := &netBenchReport{
		Benchmark: "netbench",
		Description: "colockd wire-protocol loopback cost: Begin + NOFOLLOW shared locks + Commit, " +
			"pipelined transactions per connection, through internal/server and the client package vs " +
			"the identical loop on an in-process txn.Manager; local_over_net_ratio is the median " +
			"within-pair time ratio (in-process over network)",
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Quick:         sc.quick,
		LocksPerTxn:   netLocksPerTxn,
		PipelineDepth: netPipelineDepth,
		NoFollow:      true,
	}
	pairs := 9
	if sc.quick {
		pairs = 3
	}
	for _, conns := range sc.workers {
		h, err := newNetHarness()
		if err != nil {
			return nil, err
		}
		clients := make([]*client.Client, conns)
		for i := range clients {
			if clients[i], err = client.Dial(h.srv.Addr(), client.Options{}); err != nil {
				h.close()
				return nil, err
			}
		}
		lats := make([][]float64, conns*netPipelineDepth)
		p := pairABBA(conns*netPipelineDepth, netLocksPerTxn, pairs, sc.dur/6, netBody(clients, lats), localBody(h.local))
		var all []float64
		for _, s := range lats {
			all = append(all, s...)
		}
		sort.Float64s(all)
		rep.Results = append(rep.Results, netResult{
			Connections:         conns,
			NetAcquiresPerSec:   p.aOps,
			LocalAcquiresPerSec: p.bOps,
			LocalOverNetRatio:   p.ratio,
			NetP50Micros:        percentile(all, 0.50),
			NetP99Micros:        percentile(all, 0.99),
		})
		for _, c := range clients {
			c.Close()
		}
		h.close()
	}
	return rep, nil
}

func (rep *netBenchReport) print() {
	tab := metrics.NewTable(
		fmt.Sprintf("Network lock service vs in-process (GOMAXPROCS=%d, %d locks/txn, %d txns/conn pipelined, NOFOLLOW, loopback TCP)",
			rep.GOMAXPROCS, rep.LocksPerTxn, rep.PipelineDepth),
		"connections", "net acquires/s", "local acquires/s", "local/net", "net p50 µs", "net p99 µs")
	for _, r := range rep.Results {
		tab.Addf(r.Connections,
			fmt.Sprintf("%.0f", r.NetAcquiresPerSec),
			fmt.Sprintf("%.0f", r.LocalAcquiresPerSec),
			fmt.Sprintf("%.1fx", r.LocalOverNetRatio),
			fmt.Sprintf("%.0f", r.NetP50Micros),
			fmt.Sprintf("%.0f", r.NetP99Micros))
	}
	fmt.Println(tab.String())
}
