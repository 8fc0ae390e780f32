package ingest

import (
	"bytes"
	"errors"
	"testing"

	"profileme/internal/profile"
)

// TestWALRecordsStageVerifiedBytes pins the WAL payloads to the bytes
// the codec verified: an admit or handoff record carries the sender's
// PMDB bytes verbatim and decodes back to the submitted database, and a
// submission built without the codec has nothing to stage.
func TestWALRecordsStageVerifiedBytes(t *testing.T) {
	saveOf := func(db *profile.DB) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := db.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	db := testShard(5, 40)
	want := saveOf(db)

	rec, err := encodeAdmitRecord(wireSub("s1", db))
	if err != nil {
		t.Fatal(err)
	}
	kind, got, _, err := decodeWALRecord(rec)
	if err != nil || kind != walKindAdmit || got.Shard != "s1" {
		t.Fatalf("admit record decoded to kind %q shard %q, err %v", kind, got.Shard, err)
	}
	if !bytes.Equal(saveOf(got.DB), want) {
		t.Fatal("admit record does not decode to the submitted database")
	}

	body, err := EncodeHandoff("donor", db.Save, []string{"s1"})
	if err != nil {
		t.Fatal(err)
	}
	h, err := DecodeHandoff(body)
	if err != nil {
		t.Fatal(err)
	}
	rec, err = encodeHandoffRecord(h)
	if err != nil {
		t.Fatal(err)
	}
	kind, _, gotH, err := decodeWALRecord(rec)
	if err != nil || kind != walKindHandoff || gotH.Key != h.Key || gotH.From != "donor" {
		t.Fatalf("handoff record decoded to kind %q key %q from %q, err %v", kind, gotH.Key, gotH.From, err)
	}
	if !bytes.Equal(saveOf(gotH.DB), want) {
		t.Fatal("handoff record does not decode to the donor's database")
	}

	if _, err := encodeAdmitRecord(Submission{Shard: "s2", DB: db}); !errors.Is(err, errNoWireBytes) {
		t.Fatalf("admit record without wire bytes: err %v, want errNoWireBytes", err)
	}
	s, err := NewService(Config{Interval: 16, WALDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.CloseWAL()
	if err := s.Submit(Submission{Shard: "s2", DB: db}); !errors.Is(err, ErrWAL) {
		t.Fatalf("WAL submit without wire bytes: err %v, want ErrWAL", err)
	}
}
