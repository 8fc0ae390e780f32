package profile

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"math"
	"slices"
	"testing"

	"profileme/internal/frame"
)

// envelope wraps a hand-built payload with a valid header and checksum,
// so only the payload decoder's own checks can reject it.
func envelope(t testing.TB, f frame.Format, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := f.WriteEnvelope(&buf, payload); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sortedRows returns deep copies of db's accumulators in PC order.
func sortedRows(db *DB) []*PCAccum {
	rows := make([]*PCAccum, 0, len(db.byPC))
	for _, pc := range db.PCs() {
		c := copyAccum(db.byPC[pc])
		rows = append(rows, &c)
	}
	return rows
}

// refsOf wraps rows, in their given order, for appendPayload.
func refsOf(rows []*PCAccum) []rowRef {
	refs := make([]rowRef, len(rows))
	for i, a := range rows {
		refs[i] = rowRef{a.PC, a}
	}
	return refs
}

// encodeV1 writes db the way the last v1 build's Save did: a gob of
// v1Image in a PMDB version 1 envelope.
func encodeV1(t testing.TB, db *DB) []byte {
	t.Helper()
	img := v1Image{
		S: db.S, W: db.W, C: db.C, TNear: db.TNear, RetainAddrs: db.RetainAddrs,
		Samples: db.samples, Pairs: db.pairs, Lost: db.lost, CorruptRej: db.corruptRejected,
		MetricNames: db.metricNames,
	}
	for _, a := range sortedRows(db) {
		img.Accums = append(img.Accums, *a)
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(img); err != nil {
		t.Fatal(err)
	}
	return envelope(t, frame.Format{Magic: "PMDB", Version: 1}, payload.Bytes())
}

// headerOnly is a v2 payload of an empty, metric-less database with the
// given row and value counts declared, followed by rest.
func headerOnly(pcs, vals uint64, rest ...byte) []byte {
	b := binary.LittleEndian.AppendUint64(nil, math.Float64bits(64))
	for _, v := range []int64{0, 4, DefaultTNear, 2} { // W C TNear RetainAddrs
		b = binary.AppendVarint(b, v)
	}
	b = append(b, 0, 0, 0, 0, 0) // totals, metric count
	b = binary.AppendUvarint(b, pcs)
	b = binary.AppendUvarint(b, vals)
	return append(b, rest...)
}

// invariantMutant is a checksum-valid PMDB v2 image that breaks one
// decoder invariant.
type invariantMutant struct {
	name string
	data []byte
	want error
}

// invariantMutants builds one mutant per v2 decoder invariant from a
// small database with a pair metric and retained addresses.
func invariantMutants(t testing.TB) []invariantMutant {
	db := NewDB(100, 80, 4)
	db.RetainAddrs = 4
	db.RegisterPairMetric("near", RetiredWithin(10))
	db.Add(pairSample(0x40, 0x44, 1))
	db.Add(pairSample(0x48, 0x40, 2))
	h := db.header()
	valid := appendPayload(nil, &h, refsOf(sortedRows(db)))

	rows := func(edit func([]*PCAccum) []*PCAccum) []byte {
		return appendPayload(nil, &h, refsOf(edit(sortedRows(db))))
	}
	overCap := h
	overCap.RetainAddrs = 0
	withAddr := sortedRows(db)
	withAddr[0].Addrs = []uint64{0xbeef}
	negS := headerOnly(0, 0)
	binary.LittleEndian.PutUint64(negS, math.Float64bits(-1))
	// A payload ending in a 9-byte varint: cutting its last byte leaves
	// the row counts plausible, so only the field read can notice.
	wideTail := rows(func(r []*PCAccum) []*PCAccum { r[len(r)-1].Addrs = []uint64{1 << 60}; return r })

	v2 := func(p []byte) []byte { return envelope(t, dbFormat, p) }
	return []invariantMutant{
		{"trailing byte", v2(append(slices.Clip(valid), 0)), frame.ErrCorrupt},
		{"repeated pc", v2(rows(func(r []*PCAccum) []*PCAccum { r[1].PC = r[0].PC; return r })), frame.ErrCorrupt},
		{"decreasing pc", v2(rows(func(r []*PCAccum) []*PCAccum { r[0], r[1] = r[1], r[0]; return r })), frame.ErrCorrupt},
		{"pair metric count", v2(rows(func(r []*PCAccum) []*PCAccum { r[0].PairMetrics = []uint64{1, 2}; return r })), frame.ErrCorrupt},
		{"addrs over RetainAddrs", v2(appendPayload(nil, &overCap, refsOf(withAddr))), frame.ErrCorrupt},
		{"rows over remaining bytes", v2(headerOnly(1<<40, 0)), frame.ErrCorrupt},
		{"values over remaining bytes", v2(headerOnly(0, 1<<40)), frame.ErrCorrupt},
		{"values declared, none used", v2(headerOnly(1, 1, append(append([]byte{0x40, 0xac, 0x02}, make([]byte, 28)...), 0, 0)...)), frame.ErrCorrupt},
		{"values used, none declared", v2(headerOnly(1, 0, append(append([]byte{0x40}, make([]byte, 29)...), 0, 1, 0x2a)...)), frame.ErrCorrupt},
		{"metric count over remaining bytes", v2(append(binary.LittleEndian.AppendUint64(nil, 0), 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0x7f)), frame.ErrCorrupt},
		{"negative width", v2(append(binary.LittleEndian.AppendUint64(nil, 0), 1)), frame.ErrCorrupt},
		{"negative interval", v2(negS), frame.ErrCorrupt},
		{"shorter than the interval", v2([]byte{1, 2, 3}), frame.ErrTruncated},
		{"ends mid-field", v2(wideTail[:len(wideTail)-1]), frame.ErrTruncated},
	}
}

// TestLoadDBRejectsV2Invariants checks that every structural invariant
// of the v2 payload is enforced by the decoder itself, behind a valid
// checksum.
func TestLoadDBRejectsV2Invariants(t *testing.T) {
	for _, m := range invariantMutants(t) {
		t.Run(m.name, func(t *testing.T) {
			_, err := LoadDB(bytes.NewReader(m.data))
			if !errors.Is(err, m.want) {
				t.Fatalf("err %v, want %v", err, m.want)
			}
		})
	}
}

// TestLoadDBUpgradesV1 loads v1 (gob) images and re-saves them: the
// result must be exactly what the original database saves as v2. The
// v1 reader enforces the v2 row invariants too, so whatever loads also
// re-saves.
func TestLoadDBUpgradesV1(t *testing.T) {
	_, small := saveImage(t)
	for name, db := range map[string]*DB{
		"empty":  NewDB(16, 0, 4),
		"small":  small,
		"600-pc": wideDB(600, 5),
	} {
		t.Run(name, func(t *testing.T) {
			loaded, err := LoadDB(bytes.NewReader(encodeV1(t, db)))
			if err != nil {
				t.Fatal(err)
			}
			want := saveBytes(t, db.Save)
			if got := saveBytes(t, loaded.Save); !bytes.Equal(got, want) {
				t.Fatal("Save(LoadDB(v1)) differs from the database's own v2 bytes")
			}
			if got := binary.LittleEndian.Uint32(want[4:8]); got != 2 {
				t.Fatalf("Save wrote version %d", got)
			}
		})
	}
	repeated := wideDB(8, 1)
	img := v1Image{S: repeated.S, W: repeated.W, C: repeated.C, RetainAddrs: repeated.RetainAddrs,
		MetricNames: repeated.metricNames}
	for _, a := range sortedRows(repeated) {
		img.Accums = append(img.Accums, *a, *a)
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(img); err != nil {
		t.Fatal(err)
	}
	bad := envelope(t, frame.Format{Magic: "PMDB", Version: 1}, payload.Bytes())
	if _, err := LoadDB(bytes.NewReader(bad)); !errors.Is(err, frame.ErrCorrupt) {
		t.Fatalf("v1 image with repeated PCs: %v, want corrupt", err)
	}
}

// TestLoadedSlicesDoNotOverlap grows a loaded database's retained
// addresses and pair metrics. Decoded rows share one value array, so
// each slice must be capped at its length: an append reallocates
// instead of writing into the next row's values.
func TestLoadedSlicesDoNotOverlap(t *testing.T) {
	src := wideDB(64, 7)
	src.RetainAddrs = 8
	loaded, err := LoadDB(bytes.NewReader(saveBytes(t, src.Save)))
	if err != nil {
		t.Fatal(err)
	}
	for _, pc := range loaded.PCs() {
		a := loaded.Get(pc)
		if cap(a.Addrs) != len(a.Addrs) || cap(a.PairMetrics) != len(a.PairMetrics) {
			t.Fatalf("pc %#x: slices not capped (addrs %d/%d, metrics %d/%d)",
				pc, len(a.Addrs), cap(a.Addrs), len(a.PairMetrics), cap(a.PairMetrics))
		}
	}
	// Merging the source back appends to every row with room.
	if err := loaded.Merge(src); err != nil {
		t.Fatal(err)
	}
	for _, pc := range src.PCs() {
		got, want := loaded.Get(pc), src.Get(pc)
		n := len(want.Addrs)
		if !slices.Equal(got.Addrs[:n], want.Addrs) || !slices.Equal(got.Addrs[n:], want.Addrs[:min(n, 8-n)]) {
			t.Fatalf("pc %#x: addrs %v after merging %v into itself", pc, got.Addrs, want.Addrs)
		}
	}
	// The same two merges into a database that never went through the
	// decoder: any write past a row's values shows as a difference.
	ref := NewDB(src.S, src.W, src.C)
	ref.RetainAddrs = 8
	ref.RegisterPairMetric("near", RetiredWithin(10))
	for range 2 {
		if err := ref.Merge(src); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(saveBytes(t, ref.Save), saveBytes(t, loaded.Save)) {
		t.Fatal("merging into a loaded database differs from merging into a built one")
	}
}

// TestSortRefs checks both sort paths against a comparison sort, on
// PCs that share high bytes (the common case, where radix passes are
// skipped) and on PCs spread over all 64 bits.
func TestSortRefs(t *testing.T) {
	for _, n := range []int{0, 1, 255, 256, 10000} {
		for _, spread := range []bool{false, true} {
			refs := make([]rowRef, n)
			x := uint64(n) + 1
			for i := range refs {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				pc := 0x10000 + 4*(x%uint64(4*n+1))
				if spread {
					pc = x
				}
				refs[i] = rowRef{pc: pc}
			}
			want := slices.Clone(refs)
			slices.SortStableFunc(want, func(a, b rowRef) int { return cmp.Compare(a.pc, b.pc) })
			sortRefs(refs)
			for i := range refs {
				if refs[i].pc != want[i].pc {
					t.Fatalf("n=%d spread=%v: position %d holds %#x, want %#x", n, spread, i, refs[i].pc, want[i].pc)
				}
			}
		}
	}
}
