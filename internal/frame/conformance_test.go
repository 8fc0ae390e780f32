package frame_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"profileme/internal/core"
	"profileme/internal/frame"
	"profileme/internal/ingest"
	"profileme/internal/profile"
	"profileme/internal/traffic"
	"profileme/internal/wal"
)

// conformance is one on-disk format under the shared framing contract.
type conformance struct {
	name string
	data []byte
	// golden pins the SHA-256 of data: the bytes written for fixed
	// inputs ("" for PMTF, whose v2 layout postdates the pins).
	golden string
	// records lists, for record-stream formats, where the stream's
	// records start and then where each one ends: a cut exactly there
	// is a valid shorter stream. Envelope formats leave it nil.
	records []int
	// flips pairs the offset of a payload byte to flip with the complete
	// records still read before the damaged frame.
	flips [][2]int
	// decode returns the complete records read, where reading stopped
	// (-1 when the format does not say), and the typed verdict.
	decode func(b []byte) (n int, at int64, err error)
	// A checksum or version failure in the WAL is truncation, not an
	// error: replay keeps the intact prefix.
	flipErr, skewErr error
	// skewTo is the version byte written for the skew check; zero means
	// the fixture's own version plus one.
	skewTo byte
}

// pmdbGolden pins the PMDB v2 bytes of fixtureDB.
const pmdbGolden = "da8e536efdb066f1ec31c0153127ff8e504d56cd6865307b6925a64c57b1c971"

func fixtureDB(t *testing.T) []byte {
	db := profile.NewDB(100, 80, 4)
	db.RetainAddrs = 2
	r := core.Record{PC: 0x40, LoadComplete: -1, Addr: 0xbeef, AddrValid: true, Events: core.EvRetired}
	for i := range r.StageCycle {
		r.StageCycle[i] = int64(2 * i)
	}
	db.Add(core.Sample{First: r})
	db.RecordLoss(3)
	if db.Samples() != 1 {
		t.Fatal("fixture sample rejected")
	}
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func fixtureCheckpoint(t *testing.T, pmdb []byte) []byte {
	var buf bytes.Buffer
	if err := ingest.WriteCheckpoint(&buf, &ingest.Checkpoint{
		Profile:         pmdb,
		Applied:         []string{"s1", "s2"},
		RefusedLoss:     map[string]uint64{"s3": 7},
		HandoffFrom:     map[string]string{"s4": "c1"},
		AppliedHandoffs: []string{"1:16"},
		HandoffKeys:     map[string]uint64{"k": 9},
		Barrier:         wal.Pos{Seg: 1, Off: 16},
	}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// pmdbV1 is fixtureDB as the last build writing PMDB v1 (gob) saved it.
// LoadDB still reads it: earlier builds' checkpoints, WAL records and
// traces hold such bytes until they are rewritten as v2.
func pmdbV1(t *testing.T) []byte {
	b, err := os.ReadFile(filepath.Join("testdata", "pmdb-v1.bin"))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

var walPayloads = [][]byte{[]byte("alpha"), []byte("beta"), bytes.Repeat([]byte{0xab}, 300)}

const walSegment = "wal-0000000000000001.log"

func fixtureSegment(t *testing.T) []byte {
	dir := t.TempDir()
	l, _, err := wal.Open(wal.Config{Dir: dir, Fsync: func(*os.File) error { return nil }}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range walPayloads {
		if _, err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seg, err := os.ReadFile(filepath.Join(dir, walSegment))
	if err != nil {
		t.Fatal(err)
	}
	return seg
}

func fixtureTrace(t *testing.T) (data []byte, records []int) {
	var buf bytes.Buffer
	w, err := traffic.NewWriter(&buf, traffic.Meta{Source: "conformance"})
	if err != nil {
		t.Fatal(err)
	}
	records = append(records, buf.Len())
	for i, shard := range []string{"c/s000", "c/s001"} {
		if err := w.Append(traffic.Record{OffsetUS: int64(10 * i), Cohort: "c", Shard: shard, Body: []byte("body")}); err != nil {
			t.Fatal(err)
		}
		records = append(records, buf.Len())
	}
	return buf.Bytes(), records
}

func formats(t *testing.T) []conformance {
	pmdb := fixtureDB(t)
	trace, traceRecs := fixtureTrace(t)
	walRecs := []int{frame.HeaderLen}
	for _, p := range walPayloads {
		walRecs = append(walRecs, walRecs[len(walRecs)-1]+frame.RecordHeaderLen+len(p))
	}
	loadDB := func(b []byte) (int, int64, error) {
		_, err := profile.LoadDB(bytes.NewReader(b))
		return one(err), -1, err
	}
	return []conformance{
		{
			name: "PMDB", data: pmdb, golden: pmdbGolden,
			flips:   [][2]int{{frame.HeaderLen, 0}},
			decode:  loadDB,
			flipErr: frame.ErrCorrupt, skewErr: frame.ErrVersionSkew,
		},
		{
			// The same database in the v1 layout. Its next version is the
			// current one, so the skew check writes the one after that.
			name: "PMDB-v1", data: pmdbV1(t), golden: "8adc1f5f3ae35b1fe1a9137566eee6c15af0c3d1b9c2662dd3581fdb40ad3283",
			flips:   [][2]int{{frame.HeaderLen, 0}, {frame.HeaderLen + 40, 0}},
			decode:  loadDB,
			flipErr: frame.ErrCorrupt, skewErr: frame.ErrVersionSkew, skewTo: 3,
		},
		{
			name: "PMCK", data: fixtureCheckpoint(t, pmdb), golden: "f5bc8b16a4cfe7bb3b9d0f54092f5a75a3a0e436847c95422e13017e71bd35f4",
			flips: [][2]int{{frame.HeaderLen, 0}},
			decode: func(b []byte) (int, int64, error) {
				_, err := ingest.ReadCheckpoint(bytes.NewReader(b))
				return one(err), -1, err
			},
			flipErr: frame.ErrCorrupt, skewErr: frame.ErrVersionSkew,
		},
		{
			name: "PMTF", data: trace, records: traceRecs,
			// The meta block, then each record's payload.
			flips: [][2]int{{frame.HeaderLen, 0}, {traceRecs[0] + frame.RecordHeaderLen, 0}, {traceRecs[1] + frame.RecordHeaderLen, 1}},
			decode: func(b []byte) (int, int64, error) {
				_, recs, err := traffic.ReadAll(bytes.NewReader(b))
				return len(recs), -1, err
			},
			flipErr: frame.ErrCorrupt, skewErr: frame.ErrVersionSkew,
		},
		{
			name: "PMWS", data: fixtureSegment(t), golden: "066a20fd051691d7198798477d76b1c2fbeb92bb56f718028074afc7a39e252b",
			records: walRecs,
			flips:   [][2]int{{walRecs[0] + frame.RecordHeaderLen, 0}, {walRecs[1] + frame.RecordHeaderLen, 1}, {walRecs[2] + frame.RecordHeaderLen, 2}},
			decode: func(b []byte) (int, int64, error) {
				dir := t.TempDir()
				if err := os.WriteFile(filepath.Join(dir, walSegment), b, 0o644); err != nil {
					t.Fatal(err)
				}
				info, err := wal.Replay(dir, nil)
				if err != nil {
					t.Fatalf("replay: %v", err)
				}
				if info.Truncated {
					return info.Records, info.TruncatedAt.Off, fmt.Errorf("replay truncated: %w", frame.ErrTruncated)
				}
				return info.Records, int64(len(b)), nil
			},
			flipErr: frame.ErrTruncated, skewErr: frame.ErrTruncated,
		},
	}
}

func one(err error) int {
	if err != nil {
		return 0
	}
	return 1
}

// TestFramingConformance holds every format to one contract: a cut at
// any byte is truncation (or, between records, a valid shorter stream),
// a flipped payload bit is corruption, another version is skew — and
// the bytes written for fixed inputs are the pinned ones.
func TestFramingConformance(t *testing.T) {
	for _, f := range formats(t) {
		t.Run(f.name, func(t *testing.T) {
			if f.golden != "" {
				if sum := sha256.Sum256(f.data); hex.EncodeToString(sum[:]) != f.golden {
					t.Fatalf("bytes moved: sha256 %x, want %s", sum, f.golden)
				}
			}
			check := func(what string, b []byte, wantN int, wantAt int64, wantErr error) {
				t.Helper()
				n, at, err := f.decode(b)
				if wantErr == nil && err != nil || wantErr != nil && !errors.Is(err, wantErr) {
					t.Fatalf("%s: err %v, want %v", what, err, wantErr)
				}
				if n != wantN {
					t.Fatalf("%s: %d records, want %d", what, n, wantN)
				}
				if at >= 0 && at != wantAt {
					t.Fatalf("%s: stopped at offset %d, want %d", what, at, wantAt)
				}
			}
			whole := max(1, len(f.records)-1)
			check("intact", f.data, whole, int64(len(f.data)), nil)
			for cut := 0; cut < len(f.data); cut++ {
				n, at, err := 0, int64(0), error(frame.ErrTruncated)
				for i, end := range f.records {
					if cut < end {
						break
					}
					n, at = i, int64(end)
					if cut == end {
						err = nil
					}
				}
				check(fmt.Sprintf("cut at %d", cut), f.data[:cut], n, at, err)
			}
			for _, fl := range f.flips {
				flipped := append([]byte(nil), f.data...)
				flipped[fl[0]] ^= 0x10
				at := int64(-1)
				if f.records != nil {
					at = int64(f.records[fl[1]])
				}
				check(fmt.Sprintf("flip at %d", fl[0]), flipped, fl[1], at, f.flipErr)
			}
			skewed := append([]byte(nil), f.data...)
			skewed[4]++
			if f.skewTo != 0 {
				skewed[4] = f.skewTo
			}
			check(fmt.Sprintf("version %d", skewed[4]), skewed, 0, 0, f.skewErr)
		})
	}
}

// TestPMDBBytesIndependentOfGobHistory saves the fixture database after
// this process has gob-encoded other types (an unrelated struct, then a
// checkpoint). Gob numbers types per process, so a gob-based PMDB would
// change bytes here; v2 must not.
func TestPMDBBytesIndependentOfGobHistory(t *testing.T) {
	type unrelated struct {
		Name  string
		Peers map[string][]int
	}
	if err := gob.NewEncoder(io.Discard).Encode(unrelated{Name: "x", Peers: map[string][]int{"a": {1}}}); err != nil {
		t.Fatal(err)
	}
	fixtureCheckpoint(t, []byte("not a database"))
	if sum := sha256.Sum256(fixtureDB(t)); hex.EncodeToString(sum[:]) != pmdbGolden {
		t.Fatalf("PMDB bytes depend on gob history: sha256 %x, want %s", sum, pmdbGolden)
	}
}
