package trace

import (
	"context"
	"errors"
	"flag"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"colock/internal/lock"
)

var externalIncident = flag.String("incidentfile", "",
	"path to an incident JSONL file to validate (used by `make trace-demo`)")

// TestExternalIncidentFileParses validates an incident dump produced outside
// the test process — the `make trace-demo` gate pipes a scripted colockshell
// session into a temp dir and hands the resulting file in here. Skipped when
// no -incidentfile is given.
func TestExternalIncidentFileParses(t *testing.T) {
	if *externalIncident == "" {
		t.Skip("no -incidentfile given")
	}
	inc, err := ParseIncidentFile(*externalIncident)
	if err != nil {
		t.Fatalf("incident file does not parse: %v", err)
	}
	if inc.Reason != "timeout" && inc.Reason != "victim" {
		t.Errorf("incident reason = %q, want timeout or victim", inc.Reason)
	}
	if len(inc.Spans) == 0 {
		t.Error("incident carries no victim span tree")
	}
	if inc.Queues == nil {
		t.Error("incident carries no queue snapshot")
	}
	if !strings.Contains(inc.DOT, "digraph") {
		t.Errorf("incident waits-for graph is not DOT:\n%s", inc.DOT)
	}
}

func TestManualIncidentRoundTrip(t *testing.T) {
	m := lock.NewManager(lock.Options{})
	rec := NewRecorder(Options{ShardOf: m.ShardOf})
	dir := t.TempDir()
	iw := NewIncidentWriter(dir, rec, m, IncidentOptions{})

	if err := m.AcquireCtx(context.Background(), 1, "db1/seg1/cells/c1", lock.X); err != nil {
		t.Fatal(err)
	}
	sp := rec.Start(1, "lock", "db1/seg1/cells/c1", lock.X)
	sp.Child("acquire", "db1/seg1/cells/c1", lock.X).End(nil)
	// Leave the root span open: an incident mid-operation must show it.

	path, err := iw.Trigger("manual", 1, "db1/seg1/cells/c1", "X")
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Dir(path) != dir {
		t.Errorf("incident written to %s, want dir %s", path, dir)
	}

	inc, err := ParseIncidentFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if inc.Reason != "manual" || inc.Txn != 1 || inc.Resource != "db1/seg1/cells/c1" || inc.Mode != "X" {
		t.Errorf("incident header = %+v", inc)
	}
	if len(inc.Spans) != 2 {
		t.Fatalf("incident spans = %d, want 2", len(inc.Spans))
	}
	if !inc.Spans[0].Open {
		t.Errorf("root span not marked open: %+v", inc.Spans[0])
	}
	if inc.Spans[0].Shard != m.ShardOf("db1/seg1/cells/c1") {
		t.Errorf("span shard = %d, want %d", inc.Spans[0].Shard, m.ShardOf("db1/seg1/cells/c1"))
	}
	if len(inc.Queues) != 1 || inc.Queues[0].Resource != "db1/seg1/cells/c1" {
		t.Errorf("incident queues = %+v", inc.Queues)
	}
	if !strings.Contains(inc.DOT, "digraph waitsfor") {
		t.Errorf("incident DOT = %q", inc.DOT)
	}

	infos := iw.Incidents()
	if len(infos) != 1 || infos[0].Reason != "manual" || infos[0].Spans != 2 || infos[0].Path != path {
		t.Errorf("Incidents() = %+v", infos)
	}
}

func TestIncidentAutoOnTimeout(t *testing.T) {
	m := lock.NewManager(lock.Options{Policy: lock.PolicyNone})
	rec := NewRecorder(Options{ShardOf: m.ShardOf})
	iw := NewIncidentWriter(t.TempDir(), rec, m, IncidentOptions{})
	m.AttachSink(iw)

	if err := m.AcquireCtx(context.Background(), 1, "a", lock.X); err != nil {
		t.Fatal(err)
	}
	sp := rec.Start(2, "lock", "a", lock.X)
	err := m.AcquireCtx(context.Background(), 2, "a", lock.X, lock.WithTimeout(5*time.Millisecond))
	sp.End(err)
	if !errors.Is(err, lock.ErrTimeout) {
		t.Fatalf("got %v, want ErrTimeout", err)
	}

	infos := iw.Incidents()
	if len(infos) != 1 {
		t.Fatalf("incidents = %+v, want 1", infos)
	}
	if infos[0].Reason != "timeout" || infos[0].Txn != 2 {
		t.Errorf("incident = %+v, want timeout for txn 2", infos[0])
	}
	inc, err := ParseIncidentFile(infos[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	// The dump is taken during event delivery, before the caller's End runs:
	// the victim's lock span is present and still open.
	if len(inc.Spans) != 1 || !inc.Spans[0].Open {
		t.Fatalf("incident spans = %+v, want one open span", inc.Spans)
	}
	// Txn 1 still holds X on a in the queue snapshot.
	if len(inc.Queues) != 1 || len(inc.Queues[0].Granted) != 1 || inc.Queues[0].Granted[0].Txn != 1 {
		t.Errorf("incident queues = %+v", inc.Queues)
	}
	m.ReleaseAll(1)
}

// sinkFunc adapts a function to lock.EventSink.
type sinkFunc func(lock.Event)

func (f sinkFunc) Record(e lock.Event) { f(e) }

func TestIncidentAutoOnDeadlockVictim(t *testing.T) {
	m := lock.NewManager(lock.Options{})
	rec := NewRecorder(Options{ShardOf: m.ShardOf})
	iw := NewIncidentWriter(t.TempDir(), rec, m, IncidentOptions{})
	m.AttachSink(iw)
	// The detector may wake the victim before it delivers the victim event,
	// so AcquireCtx can return ErrDeadlock before the dump exists. Sinks are
	// delivered in attach order: once this later sink sees the victim event,
	// iw.Record has returned.
	recorded := make(chan struct{}, 1)
	m.AttachSink(sinkFunc(func(e lock.Event) {
		if e.Kind == "victim" {
			select {
			case recorded <- struct{}{}:
			default:
			}
		}
	}))

	if err := m.AcquireCtx(context.Background(), 1, "a", lock.X); err != nil {
		t.Fatal(err)
	}
	if err := m.AcquireCtx(context.Background(), 2, "b", lock.X); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- m.AcquireCtx(context.Background(), 1, "b", lock.X) }()
	for i := 0; m.WaitingTxns() == 0; i++ {
		if i > 2000 {
			t.Fatal("txn 1 never queued")
		}
		time.Sleep(time.Millisecond)
	}
	// Txn 2 (younger) closes the cycle and is chosen as the victim.
	err := m.AcquireCtx(context.Background(), 2, "a", lock.X)
	if !errors.Is(err, lock.ErrDeadlock) {
		t.Fatalf("got %v, want ErrDeadlock", err)
	}
	m.ReleaseAll(2)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(1)
	select {
	case <-recorded:
	case <-time.After(10 * time.Second):
		t.Fatal("victim event never delivered to the sinks")
	}

	infos := iw.Incidents()
	if len(infos) != 1 {
		t.Fatalf("incidents = %+v, want 1", infos)
	}
	if infos[0].Reason != "victim" || infos[0].Txn != 2 {
		t.Errorf("incident = %+v, want victim for txn 2", infos[0])
	}
	if _, err := ParseIncidentFile(infos[0].Path); err != nil {
		t.Fatal(err)
	}
}

func TestIncidentCap(t *testing.T) {
	m := lock.NewManager(lock.Options{})
	iw := NewIncidentWriter(t.TempDir(), nil, m, IncidentOptions{MaxIncidents: 2})
	for i := 0; i < 3; i++ {
		_, err := iw.Trigger("manual", lock.TxnID(i+1), "a", "X")
		if i < 2 && err != nil {
			t.Fatal(err)
		}
		if i == 2 && err == nil {
			t.Fatal("third incident exceeded cap but was written")
		}
	}
	if len(iw.Incidents()) != 2 || iw.Dropped() != 1 {
		t.Errorf("incidents=%d dropped=%d, want 2 and 1", len(iw.Incidents()), iw.Dropped())
	}
}

func TestParseIncidentRejectsMalformed(t *testing.T) {
	if _, err := ParseIncident(strings.NewReader("")); err == nil {
		t.Error("empty file parsed")
	}
	if _, err := ParseIncident(strings.NewReader(`{"type":"span","span":{"txn":1}}` + "\n")); err == nil {
		t.Error("file without header parsed")
	}
	if _, err := ParseIncident(strings.NewReader(`{"type":"bogus"}` + "\n")); err == nil {
		t.Error("unknown line type parsed")
	}
	if _, err := ParseIncident(strings.NewReader("not json\n")); err == nil {
		t.Error("non-JSON line parsed")
	}
}
