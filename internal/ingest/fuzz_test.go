package ingest

import (
	"bytes"
	"encoding/json"
	"errors"
	"path/filepath"
	"testing"

	"profileme/internal/frame"
	"profileme/internal/profile"
	"profileme/internal/wal"
)

// FuzzDecodeSubmit feeds the HTTP submission decoder arbitrary bytes —
// the same contract FuzzLoadDB pins for the disk envelope, lifted to the
// wire: every rejection is typed (ErrBadSubmit for envelope damage,
// frame.ErrCorrupt/ErrTruncated/ErrVersionSkew for payload damage),
// never a panic or an unbounded allocation, and an accepted submission is
// immediately usable for queries and loss accounting.
func FuzzDecodeSubmit(f *testing.F) {
	// Seed deep inside the grammar: a valid submission plus structured
	// mutants (truncated inner envelope, flipped payload byte, wrong JSON
	// shapes, oversized length claims).
	db := testShard(7, 25)
	valid, err := EncodeSubmit("compress/s003", db)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)

	var env submitEnvelope
	if err := json.Unmarshal(valid, &env); err != nil {
		f.Fatal(err)
	}
	trunc, _ := json.Marshal(submitEnvelope{Shard: env.Shard, Profile: env.Profile[:len(env.Profile)/2]})
	f.Add(trunc)
	flipped := append([]byte(nil), env.Profile...)
	flipped[len(flipped)/2] ^= 0x20
	mut, _ := json.Marshal(submitEnvelope{Shard: env.Shard, Profile: flipped})
	f.Add(mut)
	noShard, _ := json.Marshal(submitEnvelope{Profile: env.Profile})
	f.Add(noShard)
	f.Add([]byte(`{"shard":"x","profile":""}`))
	f.Add([]byte(`{"shard":"x","profile":"AAAA"}`))
	f.Add([]byte(`{"shard":123}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte{})
	// A PMDB v2 body of a wide generated-program shard, and the same
	// envelope carrying v1 (gob) profile bytes as earlier builds sent.
	wide, err := EncodeSubmit("gen/s001", wideShard(64, 2))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(wide)
	ck, err := LoadCheckpointFile(filepath.Join(v1State, "ckpt.db"))
	if err != nil {
		f.Fatal(err)
	}
	v1, _ := json.Marshal(submitEnvelope{Shard: "old/s001", Profile: ck.Profile})
	f.Add(v1)

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeSubmit(data)
		if err != nil {
			if !errors.Is(err, ErrBadSubmit) &&
				!errors.Is(err, frame.ErrCorrupt) &&
				!errors.Is(err, frame.ErrTruncated) &&
				!errors.Is(err, frame.ErrVersionSkew) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		// Accepted: the submission must be queryable and accountable.
		if got.Shard == "" || got.DB == nil {
			t.Fatalf("accepted submission incomplete: %+v", got)
		}
		_ = got.Captured()
		for _, pc := range got.DB.PCs() {
			got.DB.EstimatedCount(pc)
		}
		_ = got.DB.Report(nil, 10)
	})
}

// TestDecodeSubmitRoundTrip pins the happy path: what EncodeSubmit
// writes, DecodeSubmit reads back with identical totals.
func TestDecodeSubmitRoundTrip(t *testing.T) {
	db := testShard(3, 40)
	db.RecordLoss(5)
	body, err := EncodeSubmit("li/s001", db)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSubmit(body)
	if err != nil {
		t.Fatal(err)
	}
	if got.Shard != "li/s001" {
		t.Fatalf("shard %q", got.Shard)
	}
	if got.DB.Samples() != db.Samples() || got.DB.Lost() != db.Lost() {
		t.Fatalf("round-trip totals %d/%d, want %d/%d",
			got.DB.Samples(), got.DB.Lost(), db.Samples(), db.Lost())
	}
	if got.Captured() != db.Samples()+db.Lost() {
		t.Fatalf("captured %d", got.Captured())
	}
	var buf bytes.Buffer
	if err := got.DB.Save(&buf); err != nil {
		t.Fatalf("decoded database not re-saveable: %v", err)
	}
}

// FuzzReadCheckpoint holds the PMCK reader to the framing contract on
// arbitrary bytes: a typed error or a clean decode, never a panic or an
// unbounded allocation. An accepted checkpoint must survive a rewrite,
// and its embedded profile must itself load or fail typed — Recover
// trusts both.
func FuzzReadCheckpoint(f *testing.F) {
	var prof bytes.Buffer
	if err := testShard(5, 12).Save(&prof); err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, &Checkpoint{
		Profile:     prof.Bytes(),
		Applied:     []string{"a", "b"},
		RefusedLoss: map[string]uint64{"c": 4},
		HandoffKeys: map[string]uint64{"k": 2},
		Barrier:     wal.Pos{Seg: 2, Off: 40},
	}); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:frame.HeaderLen])
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x08
	f.Add(flipped)
	f.Add(prof.Bytes()) // a bare profile database is not a checkpoint
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		typed := func(err error) bool {
			return errors.Is(err, frame.ErrCorrupt) || errors.Is(err, frame.ErrTruncated) ||
				errors.Is(err, frame.ErrVersionSkew)
		}
		ck, err := ReadCheckpoint(bytes.NewReader(data))
		if err != nil {
			if !typed(err) {
				t.Fatalf("untyped checkpoint error: %v", err)
			}
			return
		}
		if len(ck.Profile) > 0 {
			if _, err := profile.LoadDB(bytes.NewReader(ck.Profile)); err != nil && !typed(err) {
				t.Fatalf("untyped embedded profile error: %v", err)
			}
		}
		var again bytes.Buffer
		if err := WriteCheckpoint(&again, ck); err != nil {
			t.Fatalf("accepted checkpoint not rewritable: %v", err)
		}
		back, err := ReadCheckpoint(&again)
		if err != nil || back.Barrier != ck.Barrier || len(back.Applied) != len(ck.Applied) ||
			!bytes.Equal(back.Profile, ck.Profile) {
			t.Fatalf("rewritten checkpoint differs: %v", err)
		}
	})
}
