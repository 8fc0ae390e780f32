package profile

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"

	"profileme/internal/frame"
)

// The on-disk database is a frame envelope (DESIGN.md §7 "Framing") with
// magic PMDB. Version 2 is the hand-written payload below; version 1, a
// gob payload, is still read so state written by earlier builds
// (checkpoints, WAL records, traces) loads and is rewritten as v2. The
// checksum turns silent bit rot and truncation into typed load errors
// instead of garbage decodes.
var dbFormat = frame.Format{Magic: "PMDB", Version: 2, Oldest: 1}

// maxImageBytes caps the declared payload so a forged length field cannot
// drive allocation (a compact per-PC image is megabytes, not gigabytes).
const maxImageBytes = 1 << 28

// The v2 payload. Unsigned fields are uvarints, signed ones zig-zag
// varints:
//
//	S                               float64 bits, 8 bytes little-endian
//	W C TNear RetainAddrs           varint
//	Samples Pairs Lost CorruptRej   uvarint
//	metric names                    count, then each: length | bytes
//	PC count
//	value count                     PairMetrics + Addrs entries of all rows
//	rows, ascending PC:
//	  PC delta                      the first PC itself, every later delta > 0
//	  Samples Events[11] LatSum[5] LatCount[5] MemLatSum MemLatCount
//	  InProgressSum InProgressCount UsefulOverlap PairSamples RetiredNear
//	  PairMetrics                   count (0 or the metric count) | values
//	  Addrs                         count (<= RetainAddrs) | values
//
// Every count is checked against the bytes left before anything is
// allocated, and the decoder allocates O(1): one accumulator array the
// map points into and one value array the rows' slices are carved from.

// minRowBytes is the smallest encoded row: one byte per varint field
// and per slice count.
const minRowBytes = 1 + 1 + numEventKinds + 2*NumLatencyKinds + 4 + 3 + 2

// dbHeader is a database's persistent state apart from its rows.
// Custom pair-metric functions are not serializable; their names and
// counts survive, and a loaded database can be queried but accumulates
// further custom metrics only after the functions are re-registered via
// RestorePairMetrics.
type dbHeader struct {
	S           float64
	W, C        int
	TNear       int64
	RetainAddrs int
	Samples     uint64
	Pairs       uint64
	Lost        uint64
	CorruptRej  uint64
	MetricNames []string
}

func (db *DB) header() dbHeader {
	return dbHeader{
		S: db.S, W: db.W, C: db.C, TNear: db.TNear, RetainAddrs: db.RetainAddrs,
		Samples: db.samples, Pairs: db.pairs,
		Lost: db.lost, CorruptRej: db.corruptRejected,
		MetricNames: db.metricNames,
	}
}

// check rejects a configuration no database can have.
func (h *dbHeader) check() error {
	if !(h.S >= 0) || h.W < 0 || h.C < 0 || h.RetainAddrs < 0 {
		return fmt.Errorf("impossible configuration: %w", frame.ErrCorrupt)
	}
	return nil
}

// checkRow rejects an accumulator whose slices the header cannot hold.
func (h *dbHeader) checkRow(a *PCAccum) error {
	if n := len(a.PairMetrics); n != 0 && n != len(h.MetricNames) {
		return fmt.Errorf("pc %#x: %d pair metrics, %d registered: %w", a.PC, n, len(h.MetricNames), frame.ErrCorrupt)
	}
	if len(a.Addrs) > h.RetainAddrs {
		return fmt.Errorf("pc %#x: %d addresses retained, cap %d: %w", a.PC, len(a.Addrs), h.RetainAddrs, frame.ErrCorrupt)
	}
	return nil
}

// newLoadedDB builds a database from decoded state; byPC is filled by
// the caller.
func newLoadedDB(h *dbHeader, pcs int) *DB {
	return &DB{
		S: h.S, W: h.W, C: h.C, TNear: h.TNear, RetainAddrs: h.RetainAddrs,
		byPC:    make(map[uint64]*PCAccum, pcs),
		samples: h.Samples, pairs: h.Pairs,
		lost: h.Lost, corruptRejected: h.CorruptRej,
		metricNames: h.MetricNames,
		metricFns:   make([]OverlapFunc, len(h.MetricNames)), // placeholders
	}
}

// Image is a detached copy of a database's persistent state. Taking one
// is an O(DB) memory copy; encoding it is the serialization work. The
// split lets a caller copy under its own locks and encode after
// releasing them (SafeDB.Image, the ingest checkpoint). An Image shares
// no accumulator memory with the database it came from, so later merges
// into that database never reach an encode in progress. An Image
// encodes once: Encode hands its memory back for the next image.
type Image struct {
	hdr dbHeader
	mem *imageMem // nil once encoded
}

// imageMem is an Image's memory. It is recycled through imagePool: a
// fresh multi-megabyte accumulator array per checkpoint costs more in
// zeroing, page faults and GC than the copy into it, and the copy runs
// under the caller's lock.
type imageMem struct {
	accs []PCAccum // map order; Encode sorts refs
	vals []uint64  // the PairMetrics and Addrs of accs
	refs []rowRef
}

var imagePool sync.Pool // of *imageMem

// image copies the database in one pass over the map. The copies'
// PairMetrics and Addrs are carved from a shared value array (Merge
// updates PairMetrics in place, so they must not alias the database);
// when that array grows, rows already carved keep the old one, which
// nothing writes again. Rows stay in map order: sorting is left to
// Encode, outside any lock the caller holds.
func (db *DB) image() *Image {
	m, _ := imagePool.Get().(*imageMem)
	if m == nil {
		m = new(imageMem)
	}
	if cap(m.accs) < len(db.byPC) {
		m.accs = make([]PCAccum, 0, len(db.byPC))
	}
	accs, vals := m.accs[:0], m.vals[:0]
	for _, a := range db.byPC {
		accs = append(accs, *a)
		c := &accs[len(accs)-1]
		c.PairMetrics, vals = carve(vals, a.PairMetrics)
		c.Addrs, vals = carve(vals, a.Addrs)
	}
	m.accs, m.vals = accs, vals
	return &Image{hdr: db.header(), mem: m}
}

// carve appends src to arena and returns the appended part capped at
// its length, so an append to it reallocates instead of overwriting the
// next row's values.
func carve(arena, src []uint64) ([]uint64, []uint64) {
	if len(src) == 0 {
		return nil, arena
	}
	at := len(arena)
	arena = append(arena, src...)
	return arena[at:len(arena):len(arena)], arena
}

// rowRef is a sort entry: the key beside its row, so a compare reads
// contiguous entries instead of chasing each accumulator.
type rowRef struct {
	pc uint64
	a  *PCAccum
}

// sortRefs orders refs by PC. Large sets take an LSD radix sort over
// the key bytes that differ between PCs (they share their high bytes,
// so most passes are skipped): at 10,000 PCs it runs several times
// faster than a comparison sort's 130,000 closure calls.
func sortRefs(refs []rowRef) {
	if len(refs) < 256 {
		slices.SortFunc(refs, func(x, y rowRef) int { return cmp.Compare(x.pc, y.pc) })
		return
	}
	var or, and uint64 = 0, ^uint64(0)
	for _, r := range refs {
		or |= r.pc
		and &= r.pc
	}
	src, dst := refs, make([]rowRef, len(refs))
	for shift := uint(0); shift < 64; shift += 8 {
		if byte((or^and)>>shift) == 0 {
			continue // every key has the same byte here
		}
		var at [256]int
		for _, r := range src {
			at[byte(r.pc>>shift)]++
		}
		n := 0
		for i, c := range at {
			at[i], n = n, n+c
		}
		for _, r := range src {
			b := byte(r.pc >> shift)
			dst[at[b]] = r
			at[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &refs[0] {
		copy(refs, src)
	}
}

// Encode writes the image as a versioned, checksummed envelope — the
// bytes DB.Save writes for the database the image was copied from —
// and recycles the image's memory.
func (im *Image) Encode(w io.Writer) error {
	m := im.mem
	if m == nil {
		return errors.New("profile: save: image already encoded")
	}
	im.mem = nil
	defer imagePool.Put(m)
	refs := m.refs[:0]
	for i := range m.accs {
		refs = append(refs, rowRef{m.accs[i].PC, &m.accs[i]})
	}
	m.refs = refs
	sortRefs(refs)
	return encode(w, &im.hdr, refs)
}

// Save writes the database as a versioned, checksummed envelope. A DB
// has one owner, so it encodes its live accumulators without a copy.
func (db *DB) Save(w io.Writer) error {
	refs := make([]rowRef, 0, len(db.byPC))
	for pc, a := range db.byPC {
		refs = append(refs, rowRef{pc, a})
	}
	sortRefs(refs)
	h := db.header()
	return encode(w, &h, refs)
}

// encode writes rows (ascending PC) under h as a v2 envelope, built in
// one pooled buffer and written with one Write. State the decoder would
// reject is refused here, so Save never writes bytes LoadDB cannot read
// back.
func encode(w io.Writer, h *dbHeader, rows []rowRef) error {
	if err := h.check(); err != nil {
		return fmt.Errorf("profile: save: %w", err)
	}
	for _, r := range rows {
		if err := h.checkRow(r.a); err != nil {
			return fmt.Errorf("profile: save: %w", err)
		}
	}
	bp, _ := envelopePool.Get().(*[]byte)
	if bp == nil {
		bp = new([]byte)
	}
	defer envelopePool.Put(bp)
	env := append((*bp)[:0], make([]byte, frame.HeaderLen)...)
	env = dbFormat.SealEnvelope(appendPayload(env, h, rows))
	*bp = env
	if _, err := w.Write(env); err != nil {
		return fmt.Errorf("profile: save: %w", err)
	}
	return nil
}

// envelopePool recycles encode buffers (a checkpoint's is hundreds of
// kilobytes). Writers copy what they are given, so a buffer is free
// again once Write returns.
var envelopePool sync.Pool // of *[]byte

// appendPayload appends the v2 payload of h and rows to b.
func appendPayload(b []byte, h *dbHeader, rows []rowRef) []byte {
	size := 64 + 48*len(rows)
	vals := 0
	for _, r := range rows {
		vals += len(r.a.PairMetrics) + len(r.a.Addrs)
	}
	size += 2 * vals
	for _, name := range h.MetricNames {
		size += binary.MaxVarintLen64 + len(name)
	}
	b = slices.Grow(b, size)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(h.S))
	b = binary.AppendVarint(b, int64(h.W))
	b = binary.AppendVarint(b, int64(h.C))
	b = binary.AppendVarint(b, h.TNear)
	b = binary.AppendVarint(b, int64(h.RetainAddrs))
	b = binary.AppendUvarint(b, h.Samples)
	b = binary.AppendUvarint(b, h.Pairs)
	b = binary.AppendUvarint(b, h.Lost)
	b = binary.AppendUvarint(b, h.CorruptRej)
	b = binary.AppendUvarint(b, uint64(len(h.MetricNames)))
	for _, name := range h.MetricNames {
		b = binary.AppendUvarint(b, uint64(len(name)))
		b = append(b, name...)
	}
	b = binary.AppendUvarint(b, uint64(len(rows)))
	b = binary.AppendUvarint(b, uint64(vals))
	var prev uint64
	for _, r := range rows {
		a := r.a
		b = binary.AppendUvarint(b, a.PC-prev)
		prev = a.PC
		b = binary.AppendUvarint(b, a.Samples)
		for _, v := range a.Events {
			b = binary.AppendUvarint(b, v)
		}
		for _, v := range a.LatSum {
			b = binary.AppendVarint(b, v)
		}
		for _, v := range a.LatCount {
			b = binary.AppendUvarint(b, v)
		}
		b = binary.AppendVarint(b, a.MemLatSum)
		b = binary.AppendUvarint(b, a.MemLatCount)
		b = binary.AppendVarint(b, a.InProgressSum)
		b = binary.AppendUvarint(b, a.InProgressCount)
		b = binary.AppendUvarint(b, a.UsefulOverlap)
		b = binary.AppendUvarint(b, a.PairSamples)
		b = binary.AppendUvarint(b, a.RetiredNear)
		b = appendVals(b, a.PairMetrics)
		b = appendVals(b, a.Addrs)
	}
	return b
}

func appendVals(b []byte, vs []uint64) []byte {
	b = binary.AppendUvarint(b, uint64(len(vs)))
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// LoadDB reads a database written by Save, of either format version.
// Any failure is typed with frame.ErrCorrupt, frame.ErrTruncated or
// frame.ErrVersionSkew — never a panic, a garbage database, or an
// unbounded allocation.
func LoadDB(r io.Reader) (*DB, error) {
	version, payload, err := dbFormat.ReadVersionedEnvelope(r, maxImageBytes)
	if err != nil {
		return nil, fmt.Errorf("profile: load database: %w", err)
	}
	var db *DB
	if version == 1 {
		db, err = decodeV1(payload)
	} else {
		db, err = decodeV2(payload)
	}
	if err != nil {
		return nil, fmt.Errorf("profile: load database: %w", err)
	}
	return db, nil
}

// payloadReader walks a v2 payload. The first failure sticks: later
// reads return zero, and the caller checks err before it trusts or
// allocates by what it read.
type payloadReader struct {
	b   []byte
	off int
	err error
}

// left returns the bytes not yet read.
func (r *payloadReader) left() int { return len(r.b) - r.off }

func (r *payloadReader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// uvarint is split so the one-byte case, most fields of a row,
// inlines.
func (r *payloadReader) uvarint() uint64 {
	if r.off < len(r.b) {
		if c := r.b[r.off]; c < 0x80 {
			r.off++
			return uint64(c)
		}
	}
	return r.uvarintSlow()
}

func (r *payloadReader) uvarintSlow() uint64 {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		if n == 0 {
			r.fail(fmt.Errorf("payload ends mid-field: %w", frame.ErrTruncated))
		} else {
			r.fail(fmt.Errorf("varint overflows 64 bits: %w", frame.ErrCorrupt))
		}
		r.off = len(r.b)
		return 0
	}
	r.off += n
	return v
}

func (r *payloadReader) varint() int64 {
	u := r.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// int reads a varint that must fit a non-negative int.
func (r *payloadReader) int() int {
	v := r.varint()
	if v < 0 || v > math.MaxInt {
		r.fail(fmt.Errorf("negative size field %d: %w", v, frame.ErrCorrupt))
		return 0
	}
	return int(v)
}

// count reads a declared count and rejects one the remaining bytes
// cannot hold at per bytes an element.
func (r *payloadReader) count(what string, per int) int {
	n := r.uvarint()
	if r.err == nil && n > uint64(r.left()/per) {
		r.fail(fmt.Errorf("%d %s declared, %d bytes left: %w", n, what, r.left(), frame.ErrCorrupt))
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

// vals carves the next n values from arena (already bounded by the
// declared value count) and reads them.
func (r *payloadReader) vals(arena []uint64, used *int, n int) []uint64 {
	if n == 0 {
		return nil
	}
	if n > len(arena)-*used {
		r.fail(fmt.Errorf("rows hold more values than the %d declared: %w", len(arena), frame.ErrCorrupt))
		return nil
	}
	vs := arena[*used : *used+n : *used+n]
	*used += n
	for i := range vs {
		vs[i] = r.uvarint()
	}
	return vs
}

func decodeV2(payload []byte) (*DB, error) {
	if len(payload) < 8 {
		return nil, fmt.Errorf("payload shorter than its header: %w", frame.ErrTruncated)
	}
	var h dbHeader
	h.S = math.Float64frombits(binary.LittleEndian.Uint64(payload))
	r := &payloadReader{b: payload[8:]}
	h.W = r.int()
	h.C = r.int()
	h.TNear = r.varint()
	h.RetainAddrs = r.int()
	h.Samples = r.uvarint()
	h.Pairs = r.uvarint()
	h.Lost = r.uvarint()
	h.CorruptRej = r.uvarint()
	if r.err != nil {
		return nil, r.err
	}
	if err := h.check(); err != nil {
		return nil, err
	}
	if n := r.count("metric names", 1); n > 0 {
		h.MetricNames = make([]string, n)
		for i := range h.MetricNames {
			l := r.count("name bytes", 1)
			h.MetricNames[i] = string(r.b[r.off : r.off+l])
			r.off += l
		}
	}
	pcs := r.count("rows", minRowBytes)
	nvals := r.count("values", 1)
	if r.err == nil && pcs*minRowBytes+nvals > r.left() {
		r.fail(fmt.Errorf("%d rows and %d values declared, %d bytes left: %w", pcs, nvals, r.left(), frame.ErrCorrupt))
	}
	if r.err != nil {
		return nil, r.err
	}
	db := newLoadedDB(&h, pcs)
	accs := make([]PCAccum, pcs)
	var arena []uint64
	if nvals > 0 {
		arena = make([]uint64, nvals)
	}
	used := 0
	var prev uint64
	for i := range accs {
		a := &accs[i]
		delta := r.uvarint()
		a.PC = prev + delta
		if i > 0 && a.PC <= prev {
			r.fail(fmt.Errorf("row %d: pc %#x after %#x: %w", i, a.PC, prev, frame.ErrCorrupt))
		}
		prev = a.PC
		a.Samples = r.uvarint()
		for k := range a.Events {
			a.Events[k] = r.uvarint()
		}
		for k := range a.LatSum {
			a.LatSum[k] = r.varint()
		}
		for k := range a.LatCount {
			a.LatCount[k] = r.uvarint()
		}
		a.MemLatSum = r.varint()
		a.MemLatCount = r.uvarint()
		a.InProgressSum = r.varint()
		a.InProgressCount = r.uvarint()
		a.UsefulOverlap = r.uvarint()
		a.PairSamples = r.uvarint()
		a.RetiredNear = r.uvarint()
		if n := r.uvarint(); n != 0 && n != uint64(len(h.MetricNames)) {
			r.fail(fmt.Errorf("pc %#x: %d pair metrics, %d registered: %w", a.PC, n, len(h.MetricNames), frame.ErrCorrupt))
		} else {
			a.PairMetrics = r.vals(arena, &used, int(n))
		}
		if n := r.uvarint(); n > uint64(h.RetainAddrs) {
			r.fail(fmt.Errorf("pc %#x: %d addresses retained, cap %d: %w", a.PC, n, h.RetainAddrs, frame.ErrCorrupt))
		} else {
			a.Addrs = r.vals(arena, &used, int(n))
		}
		if r.err != nil {
			return nil, r.err
		}
		// The map points into the decoded array: one backing array for
		// every accumulator instead of one heap copy per PC.
		db.byPC[a.PC] = a
	}
	switch {
	case used != nvals:
		return nil, fmt.Errorf("rows hold %d values, %d declared: %w", used, nvals, frame.ErrCorrupt)
	case r.left() != 0:
		return nil, fmt.Errorf("%d trailing bytes: %w", r.left(), frame.ErrCorrupt)
	}
	return db, nil
}

// v1Image is the version 1 payload, a gob of this struct. It is only
// read: LoadDB upgrades it, and the next Save writes version 2.
type v1Image struct {
	S           float64
	W, C        int
	TNear       int64
	RetainAddrs int
	Samples     uint64
	Pairs       uint64
	Lost        uint64
	CorruptRej  uint64
	MetricNames []string
	Accums      []PCAccum
}

func decodeV1(payload []byte) (*DB, error) {
	var img v1Image
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&img); err != nil {
		return nil, fmt.Errorf("decode: %v: %w", err, frame.ErrCorrupt)
	}
	h := dbHeader{
		S: img.S, W: img.W, C: img.C, TNear: img.TNear, RetainAddrs: img.RetainAddrs,
		Samples: img.Samples, Pairs: img.Pairs, Lost: img.Lost, CorruptRej: img.CorruptRej,
		MetricNames: img.MetricNames,
	}
	if err := h.check(); err != nil {
		return nil, err
	}
	db := newLoadedDB(&h, len(img.Accums))
	for i := range img.Accums {
		a := &img.Accums[i]
		if i > 0 && a.PC <= img.Accums[i-1].PC {
			return nil, fmt.Errorf("row %d: pc %#x after %#x: %w", i, a.PC, img.Accums[i-1].PC, frame.ErrCorrupt)
		}
		if err := h.checkRow(a); err != nil {
			return nil, err
		}
		db.byPC[a.PC] = a
	}
	return db, nil
}

// RestorePairMetrics re-binds custom metric functions after LoadDB; names
// must match the registered order exactly.
func (db *DB) RestorePairMetrics(fns map[string]OverlapFunc) error {
	for i, name := range db.metricNames {
		f, ok := fns[name]
		if !ok {
			return fmt.Errorf("profile: no function for metric %q", name)
		}
		db.metricFns[i] = f
	}
	return nil
}

// Merge folds other into db (multi-run aggregation; both databases must
// share the sampling configuration and metric registrations).
func (db *DB) Merge(other *DB) error {
	if db == other {
		// Iterating other.byPC while acc() mutates the same map is
		// undefined; a fleet bug that hands the aggregate to itself must
		// fail loudly, not double-count or corrupt the map.
		return fmt.Errorf("profile: merge: cannot merge a database into itself")
	}
	if db.S != other.S || db.W != other.W || db.C != other.C || db.TNear != other.TNear {
		return fmt.Errorf("profile: merge: configurations differ")
	}
	if len(db.metricNames) != len(other.metricNames) {
		return fmt.Errorf("profile: merge: metric sets differ")
	}
	for i := range db.metricNames {
		if db.metricNames[i] != other.metricNames[i] {
			return fmt.Errorf("profile: merge: metric %d differs (%q vs %q)",
				i, db.metricNames[i], other.metricNames[i])
		}
	}
	db.samples += other.samples
	db.pairs += other.pairs
	db.lost += other.lost
	db.corruptRejected += other.corruptRejected
	for pc, src := range other.byPC {
		dst := db.acc(pc)
		dst.Samples += src.Samples
		for i := range dst.Events {
			dst.Events[i] += src.Events[i]
		}
		for i := range dst.LatSum {
			dst.LatSum[i] += src.LatSum[i]
			dst.LatCount[i] += src.LatCount[i]
		}
		dst.MemLatSum += src.MemLatSum
		dst.MemLatCount += src.MemLatCount
		dst.InProgressSum += src.InProgressSum
		dst.InProgressCount += src.InProgressCount
		dst.UsefulOverlap += src.UsefulOverlap
		dst.PairSamples += src.PairSamples
		dst.RetiredNear += src.RetiredNear
		if room := db.RetainAddrs - len(dst.Addrs); room > 0 && len(src.Addrs) > 0 {
			// Copy before appending: the slice must not share the source
			// database's backing array, or mutating one profile after a
			// merge would silently rewrite the other.
			take := src.Addrs
			if len(take) > room {
				take = take[:room]
			}
			buf := make([]uint64, len(take))
			copy(buf, take)
			dst.Addrs = append(dst.Addrs, buf...)
		}
		if len(src.PairMetrics) > 0 {
			if dst.PairMetrics == nil {
				dst.PairMetrics = make([]uint64, len(src.PairMetrics))
			}
			for i := range src.PairMetrics {
				dst.PairMetrics[i] += src.PairMetrics[i]
			}
		}
	}
	return nil
}
