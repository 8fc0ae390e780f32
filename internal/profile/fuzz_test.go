package profile

import (
	"bytes"
	"errors"
	"testing"

	"profileme/internal/core"
	"profileme/internal/frame"
)

// FuzzLoadDB feeds LoadDB arbitrary bytes. The contract under test: every
// rejection is one of the three typed errors (never a panic or an
// unbounded allocation), and an accepted database is immediately usable.
func FuzzLoadDB(f *testing.F) {
	// Seed with a valid image plus near-valid mutants so the fuzzer starts
	// deep inside the envelope grammar.
	db := NewDB(100, 80, 4)
	db.RetainAddrs = 2
	r := rec(0x40, true, 0, 2, 3, 5, 9, 12)
	r.Addr, r.AddrValid = 0xbeef, true
	db.Add(core.Sample{First: r})
	db.RecordLoss(3)
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()

	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:frame.HeaderLen])
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)
	f.Add([]byte{})
	f.Add([]byte(dbFormat.Magic))
	f.Add([]byte("not a profile database at all"))
	// The same database as a v1 (gob) image, which LoadDB still reads,
	// and a wider v2 image with pair metrics.
	f.Add(encodeV1(f, db))
	f.Add(saveBytes(f, wideDB(12, 1).Save))
	// One checksum-valid image per v2 decoder invariant.
	for _, m := range invariantMutants(f) {
		f.Add(m.data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := LoadDB(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, frame.ErrCorrupt) && !errors.Is(err, frame.ErrTruncated) &&
				!errors.Is(err, frame.ErrVersionSkew) {
				t.Fatalf("untyped load error: %v", err)
			}
			return
		}
		// Accepted: the database must answer queries without blowing up,
		// and re-save to bytes that load back to the same bytes.
		for _, pc := range got.PCs() {
			got.EstimatedCount(pc)
		}
		_ = got.Report(nil, 20)
		_ = got.LossRate()
		saved := saveBytes(t, got.Save)
		again, err := LoadDB(bytes.NewReader(saved))
		if err != nil {
			t.Fatalf("re-saved database does not load: %v", err)
		}
		if !bytes.Equal(saveBytes(t, again.Save), saved) {
			t.Fatal("save/load round trip changed the bytes")
		}
	})
}
