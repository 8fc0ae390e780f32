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

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := LoadDB(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, frame.ErrCorrupt) && !errors.Is(err, frame.ErrTruncated) &&
				!errors.Is(err, frame.ErrVersionSkew) {
				t.Fatalf("untyped load error: %v", err)
			}
			return
		}
		// Accepted: the database must answer queries without blowing up.
		for _, pc := range got.PCs() {
			got.EstimatedCount(pc)
		}
		_ = got.Report(nil, 20)
		_ = got.LossRate()
	})
}
