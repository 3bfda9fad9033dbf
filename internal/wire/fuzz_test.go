package wire

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"colock/internal/lock"
)

// The decoders below read bytes straight off an untrusted connection. Each
// fuzz target holds one decoder to three properties: it never panics; what
// it accepts re-encodes to a payload that decodes back to the same value
// (and re-encodes to the same bytes); and, for error payloads, the
// reconstructed client error renders without panicking. The seed corpus
// under testdata/fuzz runs on every `go test`.

func FuzzReadFrame(f *testing.F) {
	for _, p := range [][]byte{nil, []byte("payload"), LockReq{Txn: 1, Node: NodeRef{Level: NodePath, Path: []string{"cells", "c1"}}}.Encode()} {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, TLock, 7, p); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte{0, 0, 0, 8, TPing})                    // body shorter than the header
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, TOK, 0, 0, 0}) // length beyond MaxFrame
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, fr.Type, fr.ReqID, fr.Payload); err != nil {
			t.Fatalf("accepted frame does not re-encode: %v", err)
		}
		if n := 4 + 9 + len(fr.Payload); !bytes.Equal(buf.Bytes(), data[:n]) {
			t.Fatalf("re-encoded frame % x, read % x", buf.Bytes(), data[:n])
		}
	})
}

func FuzzReadHello(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteHello(&buf, Hello{Version: Version}); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("HTTP/1.1"))
	f.Add(Magic[:])
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := ReadHello(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteHello(&out, h); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), data[:8]) {
			t.Fatalf("re-encoded hello % x, read % x", out.Bytes(), data[:8])
		}
	})
}

// roundTrip re-encodes an accepted message and requires the re-encoding to
// decode back to the same value and to be a fixed point of the codec.
func roundTrip[M interface{ Encode() []byte }](t *testing.T, m M, decode func([]byte) (M, error)) {
	t.Helper()
	enc := m.Encode()
	back, err := decode(enc)
	if err != nil {
		t.Fatalf("re-encoded %+v does not decode: %v", m, err)
	}
	if !reflect.DeepEqual(back, m) {
		t.Fatalf("round trip %+v -> %+v", m, back)
	}
	if again := back.Encode(); !bytes.Equal(again, enc) {
		t.Fatalf("re-encoding is not stable: % x vs % x", enc, again)
	}
}

func FuzzDecodeLockReq(f *testing.F) {
	f.Add(LockReq{Txn: 3, Node: NodeRef{Level: NodePath, Path: []string{"cells", "c1", "robots", "r1"}},
		Mode: lock.X, NoFollow: true, Timeout: 50 * time.Millisecond}.Encode())
	f.Add(LockReq{Txn: 1, Node: NodeRef{Level: NodeSegment, Segment: "seg1"}, Mode: lock.IS}.Encode())
	f.Add([]byte{1, 0, 0, 0xff, 0x80})
	f.Fuzz(func(t *testing.T, p []byte) {
		m, err := DecodeLockReq(p)
		if err != nil {
			return
		}
		roundTrip(t, m, DecodeLockReq)
	})
}

func FuzzDecodeDowngradeReq(f *testing.F) {
	f.Add(DowngradeReq{Txn: 9, Node: NodeRef{Level: NodePath, Path: []string{"cells", "c1"}},
		Keep: [][]string{{"cells", "c1", "robots", "r1"}, {"cells", "c1", "c_objects", "o2"}}}.Encode())
	f.Add(DowngradeReq{Txn: 1, Node: NodeRef{Level: NodeDatabase}}.Encode())
	f.Add([]byte{1, 2, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, p []byte) {
		m, err := DecodeDowngradeReq(p)
		if err != nil {
			return
		}
		roundTrip(t, m, DecodeDowngradeReq)
	})
}

func FuzzDecodeErrPayload(f *testing.F) {
	f.Add(ErrPayload{Cause: CauseDeadlock, Retryable: true, Txn: 4, Mode: lock.X,
		Resource: "db1/seg1/cells/c1", Message: "deadlock victim", Blockers: []uint64{2, 3}}.Encode())
	f.Add(ErrPayload{Cause: CauseOther, Message: "application error"}.Encode())
	f.Add(ErrPayload{Cause: CauseExpired}.Encode())
	f.Add([]byte{0xfe, 0xff, 0x80, 0x80, 0x01, 0x10})
	f.Fuzz(func(t *testing.T, p []byte) {
		m, err := DecodeErrPayload(p)
		if err != nil {
			return
		}
		roundTrip(t, m, DecodeErrPayload)
		if e := m.Err(); e != nil {
			_ = e.Error()
		}
	})
}

func FuzzDecodeBeginReq(f *testing.F) {
	f.Add(BeginReq{Long: true}.Encode())
	f.Add(BeginReq{}.Encode())
	f.Add([]byte{2})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, p []byte) {
		m, err := DecodeBeginReq(p)
		if err != nil {
			return
		}
		roundTrip(t, m, DecodeBeginReq)
	})
}

func FuzzDecodeReleaseReq(f *testing.F) {
	f.Add(ReleaseReq{Txn: 5, Node: NodeRef{Level: NodePath, Path: []string{"cells", "c1", "robots", "r1"}}}.Encode())
	f.Add(ReleaseReq{Txn: 1, Node: NodeRef{Level: NodeSegment, Segment: "seg2"}}.Encode())
	f.Add(ReleaseReq{Txn: 1 << 40, Node: NodeRef{Level: NodeDatabase}}.Encode())
	f.Add([]byte{1, 9, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, p []byte) {
		m, err := DecodeReleaseReq(p)
		if err != nil {
			return
		}
		roundTrip(t, m, DecodeReleaseReq)
	})
}

func FuzzDecodeTxnReq(f *testing.F) {
	f.Add(TxnReq{Txn: 42}.Encode())
	f.Add(TxnReq{Txn: 1<<64 - 1}.Encode())
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01})
	f.Fuzz(func(t *testing.T, p []byte) {
		m, err := DecodeTxnReq(p)
		if err != nil {
			return
		}
		roundTrip(t, m, DecodeTxnReq)
	})
}

func FuzzDecodeTxnReply(f *testing.F) {
	f.Add(TxnReply{Txn: 7}.Encode())
	f.Add(TxnReply{}.Encode())
	f.Add([]byte{0x81})
	f.Fuzz(func(t *testing.T, p []byte) {
		m, err := DecodeTxnReply(p)
		if err != nil {
			return
		}
		roundTrip(t, m, DecodeTxnReply)
	})
}

func FuzzDecodePong(f *testing.F) {
	f.Add(Pong{Lease: 30 * time.Second}.Encode())
	f.Add(Pong{Lease: -1}.Encode())
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0x00})
	f.Fuzz(func(t *testing.T, p []byte) {
		m, err := DecodePong(p)
		if err != nil {
			return
		}
		roundTrip(t, m, DecodePong)
	})
}

func FuzzReadWelcome(f *testing.F) {
	for _, wl := range []Welcome{
		{Version: Version, Code: WelcomeOK, Session: 12, Lease: int64(30 * time.Second)},
		{Version: Version + 1, Code: WelcomeVersionUnsupported},
	} {
		var buf bytes.Buffer
		if err := WriteWelcome(&buf, wl); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add(Magic[:])
	f.Add([]byte("HTTP/1.1 400 Bad Request\r\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		wl, err := ReadWelcome(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteWelcome(&out, wl); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), data[:24]) {
			t.Fatalf("re-encoded welcome % x, read % x", out.Bytes(), data[:24])
		}
	})
}
