package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// spanKind names a layer boundary the benchmark times: the transaction,
// its begin, each user call and its commit, and inside a local statement
// the query parse, plan and execute calls.
type spanKind uint8

const (
	spanTxn spanKind = iota
	spanBegin
	spanOp
	spanCommit
	spanParse
	spanPlan
	spanExec
	spanKinds
)

var spanNames = [spanKinds]string{"txn", "begin", "op", "commit", "query.parse", "query.plan", "query.exec"}

// span is one timed call. Times are nanoseconds since the phase's epoch;
// parent is 0 for a transaction span.
type span struct {
	id, parent uint64
	kind       spanKind
	start, end int64
}

// spanTxnCap bounds the transactions per worker whose spans are kept, so
// that a fast workload's span log stays a few megabytes.
const spanTxnCap = 5000

// spanBuf is one worker's in-memory span log. Ids carry the worker number
// in their top bits, so they are unique across workers without sharing.
type spanBuf struct {
	epoch  time.Time
	worker uint64
	n      uint64
	txn    uint64 // id of the transaction span in progress
	txns   int    // transactions started while tracing
	full   bool   // spanTxnCap reached: the transaction in progress is not kept
	spans  []span
}

func (b *spanBuf) newID() uint64 {
	b.n++
	return b.worker<<48 | b.n
}

func (b *spanBuf) add(kind spanKind, id, parent uint64, t0, t1 time.Time) {
	if b.full {
		return
	}
	b.spans = append(b.spans, span{id: id, parent: parent, kind: kind,
		start: int64(t0.Sub(b.epoch)), end: int64(t1.Sub(b.epoch))})
}

// writeSpans writes the traced phase's spans as JSON lines, preceded by
// the run's metadata, and returns the file's path.
func writeSpans(cfg config, r *report, p *phase) (string, error) {
	if err := os.MkdirAll(cfg.spansDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(cfg.spansDir, cfg.workload.name+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(map[string]any{"meta": r.meta}); err != nil {
		f.Close()
		return "", err
	}
	for _, w := range p.workers {
		for _, s := range w.tr.spans {
			fmt.Fprintf(bw, "{\"id\":%d,\"parent\":%d,\"name\":%q,\"start_ns\":%d,\"dur_ns\":%d}\n",
				s.id, s.parent, spanNames[s.kind], s.start, s.end-s.start)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// tailFinding explains the transaction tail from the traced phase: for
// the transactions at or above the p99 duration, how much of their time
// the single slowest call took, and how begin, calls and commit split it.
func tailFinding(p *phase) []string {
	type txnTimes struct {
		dur, begin, ops, commit, slowest int64
	}
	byTxn := map[uint64]*txnTimes{}
	for _, w := range p.workers {
		for _, s := range w.tr.spans {
			if s.kind == spanTxn {
				t := byTxn[s.id]
				if t == nil {
					t = &txnTimes{}
					byTxn[s.id] = t
				}
				t.dur = s.end - s.start
			}
		}
		for _, s := range w.tr.spans {
			t := byTxn[s.parent]
			if t == nil {
				continue
			}
			d := s.end - s.start
			switch s.kind {
			case spanBegin:
				t.begin += d
			case spanOp:
				t.ops += d
			case spanCommit:
				t.commit += d
			default:
				continue
			}
			if d > t.slowest {
				t.slowest = d
			}
		}
	}
	all := make([]*txnTimes, 0, len(byTxn))
	for _, t := range byTxn {
		all = append(all, t)
	}
	if len(all) < 100 {
		return nil
	}
	sort.Slice(all, func(i, j int) bool { return all[i].dur < all[j].dur })
	slowestMedian := func(ts []*txnTimes) float64 {
		v := make([]int64, len(ts))
		for i, t := range ts {
			v[i] = t.slowest
		}
		return quantileUs(sorted(v), 0.5)
	}
	share := func(ts []*txnTimes, f func(*txnTimes) int64) float64 {
		var num, den int64
		for _, t := range ts {
			num += f(t)
			den += t.dur
		}
		return 100 * float64(num) / float64(max(den, 1))
	}
	tail := all[len(all)*99/100:]
	body := all[:len(all)/2]
	line := func(label string, ts []*txnTimes) string {
		return fmt.Sprintf("%s (%d txns, %.0f-%.0f us): slowest single call (median %.0f us) %.1f%% of txn time; begin %.1f%%, calls %.1f%%, commit %.1f%%",
			label, len(ts), float64(ts[0].dur)/1e3, float64(ts[len(ts)-1].dur)/1e3, slowestMedian(ts),
			share(ts, func(t *txnTimes) int64 { return t.slowest }),
			share(ts, func(t *txnTimes) int64 { return t.begin }),
			share(ts, func(t *txnTimes) int64 { return t.ops }),
			share(ts, func(t *txnTimes) int64 { return t.commit }))
	}
	return []string{line("tail: txns >= p99", tail), line("tail: txns <= p50", body)}
}
