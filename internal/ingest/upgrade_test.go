package ingest

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"profileme/internal/profile"
	"profileme/internal/wal"
)

// v1State is a state directory written by the last build whose profile
// databases were PMDB v1 (gob): a checkpoint embedding a v1 profile,
// and a WAL segment past its barrier holding admit and handoff records
// with v1 profile bytes. recovered.pmdb and ledger.json are what that
// build's Recover rebuilt from it.
const v1State = "testdata/v1state"

// copyV1State copies the state directory into a temporary one, since
// recovery rewrites it.
func copyV1State(t *testing.T) Config {
	t.Helper()
	dir := t.TempDir()
	for _, name := range []string{"ckpt.db", filepath.Join("wal", "wal-0000000000000001.log")} {
		b, err := os.ReadFile(filepath.Join(v1State, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(filepath.Join(dir, name)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return Config{
		QueueDepth:      16,
		Interval:        16,
		WALDir:          filepath.Join(dir, "wal"),
		CheckpointPath:  filepath.Join(dir, "ckpt.db"),
		CheckpointEvery: 100,
	}
}

func pmdbVersion(b []byte) uint32 { return binary.LittleEndian.Uint32(b[4:8]) }

// TestRecoverV1State upgrades in place: recovery from the v1 state must
// rebuild the aggregate and ledger the v1 build recovered, and the next
// checkpoint writes the profile as v2.
func TestRecoverV1State(t *testing.T) {
	cfg := copyV1State(t)

	// The fixture really is v1 throughout.
	ck, err := LoadCheckpointFile(cfg.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	if v := pmdbVersion(ck.Profile); v != 1 {
		t.Fatalf("checkpoint profile is v%d, want v1", v)
	}
	kinds := map[string]int{}
	if _, err := wal.Replay(cfg.WALDir, func(_ wal.Pos, payload []byte) error {
		var env walEnvelope
		if err := json.Unmarshal(payload, &env); err != nil {
			return err
		}
		if v := pmdbVersion(env.Profile); v != 1 {
			t.Errorf("%s record carries PMDB v%d, want v1", env.Kind, v)
		}
		kinds[env.Kind]++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if kinds[walKindAdmit] == 0 || kinds[walKindHandoff] == 0 {
		t.Fatalf("WAL records %v: want admit and handoff records", kinds)
	}

	s, info, err := Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.CloseWAL()

	var want struct {
		Admitted []string          `json:"admitted"`
		Adopted  map[string]string `json:"adopted"`
		Applied  []string          `json:"applied"`
		Refused  map[string]uint64 `json:"refused"`
		Replayed int               `json:"replayed"`
	}
	raw, err := os.ReadFile(filepath.Join(v1State, "ledger.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if !info.CheckpointLoaded || info.Replayed != want.Replayed {
		t.Fatalf("recovery %+v, want the checkpoint plus %d replayed records", info, want.Replayed)
	}
	sorted := func(x []string) []string { x = slices.Clone(x); slices.Sort(x); return x }
	if got := sorted(s.AdmittedShards()); !slices.Equal(got, want.Admitted) {
		t.Errorf("admitted %v, want %v", got, want.Admitted)
	}
	if got := sorted(s.AppliedShards()); !slices.Equal(got, want.Applied) {
		t.Errorf("applied %v, want %v", got, want.Applied)
	}
	if got := s.AdoptedFrom(); !maps.Equal(got, want.Adopted) {
		t.Errorf("adopted %v, want %v", got, want.Adopted)
	}
	if got := s.RefusedLosses(); !maps.Equal(got, want.Refused) {
		t.Errorf("refused %v, want %v", got, want.Refused)
	}

	// The same aggregate: the v1 build's recovered bytes, upgraded.
	v1, err := os.ReadFile(filepath.Join(v1State, "recovered.pmdb"))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := profile.LoadDB(bytes.NewReader(v1))
	if err != nil {
		t.Fatal(err)
	}
	var refBytes bytes.Buffer
	if err := ref.Save(&refBytes); err != nil {
		t.Fatal(err)
	}
	got := aggDigest(t, s)
	if !bytes.Equal(got, refBytes.Bytes()) {
		t.Fatal("recovered aggregate differs from the one the v1 build recovered")
	}

	// The next checkpoint rewrites the profile as v2.
	if err := s.FinalCheckpoint(); err != nil {
		t.Fatal(err)
	}
	ck, err = LoadCheckpointFile(cfg.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	if v := pmdbVersion(ck.Profile); v != 2 {
		t.Fatalf("checkpoint after upgrade holds PMDB v%d, want v2", v)
	}
	if !bytes.Equal(ck.Profile, got) {
		t.Fatal("upgraded checkpoint profile differs from the recovered aggregate")
	}
}
