package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"colock/internal/lock"
)

// IncidentWriter is the flight recorder's dump trigger: attached to the lock
// manager as an event sink, it reacts to deadlock-victim and acquire-timeout
// events by writing a self-contained JSONL incident file — the victim's
// buffered span tree, the flight recorder's recent spans, the live queue
// snapshot, and the waits-for graph in DOT — so a post-mortem needs no live
// process. Record runs under the manager's sink contract (no latch held),
// which is what makes the SnapshotQueues/WaitsForDOT callbacks safe.
//
// Event sampling gates the trigger: a victim/timeout whose operation fell
// outside the manager's 1-in-2^EventSampleShift sample emits no event and
// therefore dumps no incident. Run incident-bearing managers unsampled
// (EventSampleShift 0), as colockshell does.
type IncidentWriter struct {
	dir    string
	rec    *Recorder
	mgr    *lock.Manager
	max    int
	offset func() uint64

	mu        sync.Mutex
	seq       int
	incidents []IncidentInfo
	dropped   int
}

// IncidentInfo is one written incident file's summary.
type IncidentInfo struct {
	Seq      int           `json:"seq"`
	Reason   string        `json:"reason"` // "victim", "timeout", "manual", ...
	Txn      lock.TxnID    `json:"txn"`
	Resource lock.Resource `json:"resource,omitempty"`
	Mode     string        `json:"mode,omitempty"`
	At       time.Time     `json:"at"`
	Spans    int           `json:"spans"` // victim span-tree lines in the file
	Path     string        `json:"path"`
	// JournalOffset is the durable journal's position (accepted records) at
	// dump time, when a journal was wired: `colockreplay -around <file>`
	// replays Seq ≤ JournalOffset to reconstruct the lead-up.
	JournalOffset uint64 `json:"journal_offset,omitempty"`
}

// IncidentOptions configures an IncidentWriter.
type IncidentOptions struct {
	// MaxIncidents caps the number of files written (default 64); further
	// triggers are counted as dropped instead of flooding the disk.
	MaxIncidents int
	// JournalOffset, when set, is sampled at dump time and recorded in the
	// incident header for offline correlation; wire it to the durable
	// journal writer's Offset method.
	JournalOffset func() uint64
}

// NewIncidentWriter builds a writer dumping into dir (created on demand).
// rec supplies the span buffers and flight recorder; mgr the queue snapshot
// and waits-for graph.
func NewIncidentWriter(dir string, rec *Recorder, mgr *lock.Manager, opts IncidentOptions) *IncidentWriter {
	max := opts.MaxIncidents
	if max <= 0 {
		max = 64
	}
	return &IncidentWriter{dir: dir, rec: rec, mgr: mgr, max: max, offset: opts.JournalOffset}
}

// Record is the lock.EventSink implementation: deadlock-victim and
// acquire-timeout events trigger an automatic dump. The dump is written
// synchronously, before Record returns; since the manager delivers each
// event to its sinks in attach order, a sink attached after this writer
// observes an event only once its incident is in Incidents. A victim's
// AcquireCtx may return ErrDeadlock before that: the detector wakes the
// victim before it delivers the victim event.
func (iw *IncidentWriter) Record(e lock.Event) {
	if e.Kind != "victim" && e.Kind != "timeout" {
		return
	}
	_, _ = iw.Trigger(e.Kind, e.Txn, e.Resource, e.Mode.String())
}

// Incidents lists the written incidents, oldest first.
func (iw *IncidentWriter) Incidents() []IncidentInfo {
	iw.mu.Lock()
	defer iw.mu.Unlock()
	return append([]IncidentInfo(nil), iw.incidents...)
}

// Dropped returns the number of triggers suppressed by the MaxIncidents cap.
func (iw *IncidentWriter) Dropped() int {
	iw.mu.Lock()
	defer iw.mu.Unlock()
	return iw.dropped
}

// incidentLine is one JSONL line of an incident file. Exactly one of the
// payload fields is set, selected by Type.
type incidentLine struct {
	Type string `json:"type"` // "incident", "span", "recent", "queues", "waitsfor"

	// Type "incident" (the header, always the first line).
	Reason        string        `json:"reason,omitempty"`
	Txn           lock.TxnID    `json:"txn,omitempty"`
	Resource      lock.Resource `json:"resource,omitempty"`
	Mode          string        `json:"mode,omitempty"`
	At            *time.Time    `json:"at,omitempty"`
	JournalOffset uint64        `json:"journal_offset,omitempty"`

	// Types "span" (victim's buffered tree) and "recent" (flight recorder).
	Span *Span `json:"span,omitempty"`

	// Type "queues".
	Queues []lock.QueueInfo `json:"queues,omitempty"`

	// Type "waitsfor".
	DOT string `json:"dot,omitempty"`
}

// Trigger writes an incident dump now, regardless of event kind — the
// manual escape hatch behind colockshell's .incident command. It returns
// the written file's path.
func (iw *IncidentWriter) Trigger(reason string, txn lock.TxnID, res lock.Resource, mode string) (string, error) {
	iw.mu.Lock()
	if len(iw.incidents) >= iw.max {
		iw.dropped++
		iw.mu.Unlock()
		return "", fmt.Errorf("trace: incident cap %d reached", iw.max)
	}
	iw.seq++
	seq := iw.seq
	iw.mu.Unlock()

	now := time.Now()
	info := IncidentInfo{Seq: seq, Reason: reason, Txn: txn, Resource: res, Mode: mode, At: now}
	if iw.offset != nil {
		info.JournalOffset = iw.offset()
	}
	var spans []Span
	if iw.rec != nil {
		spans = iw.rec.SpansOf(txn)
	}
	info.Spans = len(spans)

	if err := os.MkdirAll(iw.dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(iw.dir, fmt.Sprintf("incident-%04d-%s-txn%d.jsonl", seq, reason, txn))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	writeLine := func(l incidentLine) {
		if err == nil {
			err = enc.Encode(l)
		}
	}
	writeLine(incidentLine{Type: "incident", Reason: reason, Txn: txn, Resource: res, Mode: mode, At: &now, JournalOffset: info.JournalOffset})
	for i := range spans {
		writeLine(incidentLine{Type: "span", Span: &spans[i]})
	}
	if iw.rec != nil {
		recent := iw.rec.Recent(0)
		for i := range recent {
			writeLine(incidentLine{Type: "recent", Span: &recent[i]})
		}
	}
	if iw.mgr != nil {
		writeLine(incidentLine{Type: "queues", Queues: iw.mgr.SnapshotQueues()})
		writeLine(incidentLine{Type: "waitsfor", DOT: iw.mgr.WaitsForDOT()})
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", err
	}

	info.Path = path
	iw.mu.Lock()
	iw.incidents = append(iw.incidents, info)
	iw.mu.Unlock()
	return path, nil
}

// Incident is a parsed incident file.
type Incident struct {
	Reason   string
	Txn      lock.TxnID
	Resource lock.Resource
	Mode     string
	At       time.Time
	// JournalOffset is the durable journal position at dump time (zero when
	// no journal was wired).
	JournalOffset uint64
	Spans         []Span // the victim's buffered span tree
	Recent        []Span // flight-recorder spans
	Queues        []lock.QueueInfo
	DOT           string
}

// ParseIncident reads an incident dump back, validating that every line is
// well-formed JSONL of a known type and that the header comes first.
func ParseIncident(r io.Reader) (*Incident, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	inc := &Incident{}
	n := 0
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		n++
		var l incidentLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return nil, fmt.Errorf("trace: incident line %d: %w", n, err)
		}
		switch l.Type {
		case "incident":
			if n != 1 {
				return nil, fmt.Errorf("trace: incident header on line %d, want line 1", n)
			}
			inc.Reason, inc.Txn, inc.Resource, inc.Mode = l.Reason, l.Txn, l.Resource, l.Mode
			inc.JournalOffset = l.JournalOffset
			if l.At != nil {
				inc.At = *l.At
			}
		case "span":
			if l.Span == nil {
				return nil, fmt.Errorf("trace: incident line %d: span line without span", n)
			}
			inc.Spans = append(inc.Spans, *l.Span)
		case "recent":
			if l.Span == nil {
				return nil, fmt.Errorf("trace: incident line %d: recent line without span", n)
			}
			inc.Recent = append(inc.Recent, *l.Span)
		case "queues":
			inc.Queues = l.Queues
		case "waitsfor":
			inc.DOT = l.DOT
		default:
			return nil, fmt.Errorf("trace: incident line %d: unknown type %q", n, l.Type)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, fmt.Errorf("trace: empty incident file")
	}
	if inc.Reason == "" {
		return nil, fmt.Errorf("trace: incident file has no header line")
	}
	return inc, nil
}

// ParseIncidentFile is ParseIncident over a file path.
func ParseIncidentFile(path string) (*Incident, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ParseIncident(f)
}
