package frame

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"testing"
	"testing/iotest"
)

var testFormat = Format{Magic: "TEST", Version: 3}

// fuzzLimit is the declared-length cap FuzzFrame reads under. It is a
// malloc size class, so a payload buffer's capacity can be checked
// against it exactly.
const fuzzLimit = 4096

func envelope(t testing.TB, payload []byte) []byte {
	var buf bytes.Buffer
	if err := testFormat.WriteEnvelope(&buf, payload); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func records(t testing.TB, payloads ...[]byte) []byte {
	var buf bytes.Buffer
	for _, p := range payloads {
		if err := WriteRecord(&buf, p); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func TestEnvelopeRoundTripAndTypedFailures(t *testing.T) {
	payload := bytes.Repeat([]byte("profile"), 40)
	env := envelope(t, payload)
	got, err := testFormat.ReadEnvelope(bytes.NewReader(env), fuzzLimit)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("round trip: %v", err)
	}
	if _, err := testFormat.ReadEnvelope(bytes.NewReader(env), uint64(len(payload)-1)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("over-cap length: %v, want ErrCorrupt", err)
	}
	if _, err := (Format{Magic: "ELSE", Version: 3}).ReadEnvelope(bytes.NewReader(env), fuzzLimit); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("foreign magic: %v, want ErrCorrupt", err)
	}
	if _, err := (Format{Magic: "TEST", Version: 2}).ReadEnvelope(bytes.NewReader(env), fuzzLimit); !errors.Is(err, ErrVersionSkew) {
		t.Fatalf("other version: %v, want ErrVersionSkew", err)
	}
}

// TestForgedLengthCostsWhatArrives: a declared length under the cap but
// far beyond the stream is truncation, and costs what the stream holds
// rather than what it claims — whether or not the reader reports Len.
func TestForgedLengthCostsWhatArrives(t *testing.T) {
	h := testFormat.Header(1 << 30)
	forged := append(h[:], "short"...)
	for _, r := range []io.Reader{bytes.NewReader(forged), iotest.HalfReader(bytes.NewReader(forged))} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := testFormat.ReadEnvelope(r, 1<<31)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("forged length: %v, want ErrTruncated", err)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
			t.Fatalf("forged 1 GiB length allocated %d bytes", n)
		}
	}
}

// FuzzFrame holds every framing read to its contract over arbitrary
// bytes: a typed error or a clean decode that re-encodes to exactly the
// bytes consumed, never a panic, and never a payload buffer beyond the
// cap — whether or not the reader can vouch for its length up front.
func FuzzFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add(envelope(f, []byte("meta")))
	f.Add(envelope(f, bytes.Repeat([]byte{0xab}, 300)))
	f.Add(envelope(f, []byte("meta"))[:HeaderLen+2])
	f.Add(records(f, []byte("alpha"), []byte("beta")))
	f.Add(records(f, []byte("alpha"))[:RecordHeaderLen+1])
	h := testFormat.Header(1 << 40)
	f.Add(h[:])

	f.Fuzz(func(t *testing.T, data []byte) {
		typed := func(what string, err error) {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrVersionSkew) {
				t.Fatalf("%s: untyped error: %v", what, err)
			}
		}
		if word, err := testFormat.ReadHeader(bytes.NewReader(data)); err != nil {
			typed("header", err)
		} else if h := testFormat.Header(word); !bytes.Equal(h[:], data[:HeaderLen]) {
			t.Fatal("header does not re-encode to its bytes")
		}
		for _, r := range []io.Reader{bytes.NewReader(data), iotest.HalfReader(bytes.NewReader(data))} {
			payload, err := testFormat.ReadEnvelope(r, fuzzLimit)
			if err != nil {
				typed("envelope", err)
				continue
			}
			if cap(payload) > fuzzLimit {
				t.Fatalf("envelope payload buffer %d bytes exceeds cap %d", cap(payload), fuzzLimit)
			}
			if env := envelope(t, payload); !bytes.Equal(env, data[:len(env)]) {
				t.Fatal("envelope does not re-encode to its bytes")
			}
		}
		for _, r := range []io.Reader{bytes.NewReader(data), iotest.HalfReader(bytes.NewReader(data))} {
			var buf []byte
			off := 0
			for {
				payload, err := ReadRecord(r, fuzzLimit, buf)
				if err == io.EOF {
					if off != len(data) {
						t.Fatalf("clean end at %d of %d bytes", off, len(data))
					}
					break
				}
				if err != nil {
					typed("record", err)
					if errors.Is(err, ErrVersionSkew) {
						t.Fatal("records carry no version")
					}
					break
				}
				if cap(payload) > fuzzLimit {
					t.Fatalf("record payload buffer %d bytes exceeds cap %d", cap(payload), fuzzLimit)
				}
				rec := records(t, payload)
				if !bytes.Equal(rec, data[off:off+len(rec)]) {
					t.Fatal("record does not re-encode to its bytes")
				}
				off += len(rec)
				buf = payload
			}
		}
	})
}
