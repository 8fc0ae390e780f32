package frame_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
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
	// golden is the SHA-256 of data as written before the formats moved
	// onto package frame; "" for PMTF, whose v2 layout is new.
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
}

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
	return []conformance{
		{
			name: "PMDB", data: pmdb, golden: "8adc1f5f3ae35b1fe1a9137566eee6c15af0c3d1b9c2662dd3581fdb40ad3283",
			flips: [][2]int{{frame.HeaderLen, 0}},
			decode: func(b []byte) (int, int64, error) {
				_, err := profile.LoadDB(bytes.NewReader(b))
				return one(err), -1, err
			},
			flipErr: frame.ErrCorrupt, skewErr: frame.ErrVersionSkew,
		},
		{
			name: "PMCK", data: fixtureCheckpoint(t, pmdb), golden: "3d049abe5faf572b300f8657dbff7848a49d6dcd08e8ee286ca4ac86ac069301",
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
// the bytes written for fixed inputs are the ones written before the
// formats shared a framing package.
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
			check("version+1", skewed, 0, 0, f.skewErr)
		})
	}
}
