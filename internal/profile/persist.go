package profile

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"

	"profileme/internal/frame"
)

// The on-disk database is a frame envelope (DESIGN.md §7 "Framing") with
// magic PMDB around a gob payload. The checksum turns silent bit rot and
// truncation into typed load errors instead of garbage decodes.
var dbFormat = frame.Format{Magic: "PMDB", Version: 1}

// maxImageBytes caps the declared payload so a forged length field cannot
// drive allocation (a compact per-PC image is megabytes, not gigabytes).
const maxImageBytes = 1 << 28

// dbImage is the serialized form of a DB (the DCPI-style on-disk profile:
// counts and sums only, no raw samples). Custom pair-metric functions are
// not serializable; their names and counts survive, and a loaded database
// can be queried but accumulates further custom metrics only after the
// functions are re-registered via RestorePairMetrics.
type dbImage struct {
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

// Image is a detached copy of a database's persistent state. Taking one
// is an O(DB) memory copy; encoding it is the gob work. The split lets a
// caller copy under its own locks and encode after releasing them
// (SafeDB.Image, the ingest checkpoint). An Image shares no accumulator
// memory with the database it came from, so later merges into that
// database never reach an encode in progress.
type Image struct{ img dbImage }

// image copies the database: one exact-capacity accumulator slice in PC
// order, each accumulator deep-copied because Merge updates PairMetrics
// in place.
func (db *DB) image() *Image {
	pcs := db.PCs()
	accs := make([]PCAccum, len(pcs))
	for i, pc := range pcs {
		accs[i] = copyAccum(db.byPC[pc])
	}
	return &Image{img: dbImage{
		S: db.S, W: db.W, C: db.C, TNear: db.TNear, RetainAddrs: db.RetainAddrs,
		Samples: db.samples, Pairs: db.pairs,
		Lost: db.lost, CorruptRej: db.corruptRejected,
		MetricNames: db.metricNames,
		Accums:      accs,
	}}
}

// Encode writes the image as a versioned, checksummed envelope — the
// bytes DB.Save writes for the database the image was copied from.
func (im *Image) Encode(w io.Writer) error {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(im.img); err != nil {
		return fmt.Errorf("profile: save: %w", err)
	}
	if err := dbFormat.WriteEnvelope(w, payload.Bytes()); err != nil {
		return fmt.Errorf("profile: save: %w", err)
	}
	return nil
}

// Save writes the database as a versioned, checksummed envelope.
func (db *DB) Save(w io.Writer) error { return db.image().Encode(w) }

// LoadDB reads a database written by Save. Any failure is typed with
// frame.ErrCorrupt, frame.ErrTruncated or frame.ErrVersionSkew — never a
// panic, a garbage database, or an unbounded allocation.
func LoadDB(r io.Reader) (*DB, error) {
	payload, err := dbFormat.ReadEnvelope(r, maxImageBytes)
	if err != nil {
		return nil, fmt.Errorf("profile: load database: %w", err)
	}
	var img dbImage
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&img); err != nil {
		return nil, fmt.Errorf("profile: load database: decode: %v: %w", err, frame.ErrCorrupt)
	}
	if !(img.S >= 0) || img.W < 0 || img.C < 0 || img.RetainAddrs < 0 {
		return nil, fmt.Errorf("profile: load database: impossible configuration: %w", frame.ErrCorrupt)
	}
	db := NewDB(img.S, img.W, img.C)
	db.TNear = img.TNear
	db.RetainAddrs = img.RetainAddrs
	db.samples = img.Samples
	db.pairs = img.Pairs
	db.lost = img.Lost
	db.corruptRejected = img.CorruptRej
	db.metricNames = img.MetricNames
	db.metricFns = make([]OverlapFunc, len(img.MetricNames)) // placeholders
	// The map points into the decoded slice: one backing array for every
	// accumulator instead of one heap copy per PC.
	for i := range img.Accums {
		db.byPC[img.Accums[i].PC] = &img.Accums[i]
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
