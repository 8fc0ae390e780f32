package ingest

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"profileme/internal/profile"
)

// The submission wire format is a small JSON envelope around the binary
// profile-database envelope of DESIGN.md §7:
//
//	{"shard": "compress/s003", "profile": "<base64 of profile.Save bytes>"}
//
// Layering the two envelopes keeps every integrity property of the disk
// format on the wire: the inner CRC32-C catches payload damage, the
// version field catches skew between old workers and a new collector,
// and both decode failures surface as the same typed frame.Err*
// errors callers already know how to classify.

// ErrBadSubmit reports a submission whose JSON envelope is malformed:
// undecodable JSON, a missing shard id, or an empty profile payload.
// Damage *inside* the payload surfaces as frame.ErrCorrupt /
// ErrTruncated / ErrVersionSkew instead.
var ErrBadSubmit = errors.New("ingest: malformed submission")

// submitEnvelope is the JSON wire format ([]byte marshals as base64).
type submitEnvelope struct {
	Shard   string `json:"shard"`
	Profile []byte `json:"profile"`
}

// EncodeSubmit serializes one shard database as a submission body.
func EncodeSubmit(shard string, db *profile.DB) ([]byte, error) {
	if shard == "" {
		return nil, fmt.Errorf("ingest: encode: empty shard id: %w", ErrBadSubmit)
	}
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		return nil, err
	}
	return json.Marshal(submitEnvelope{Shard: shard, Profile: buf.Bytes()})
}

// DecodeSubmit parses a submission body. Every failure is typed —
// ErrBadSubmit for envelope problems, frame.ErrCorrupt/ErrTruncated/
// ErrVersionSkew for payload problems — and never a panic, whatever the
// bytes; FuzzDecodeSubmit holds it to that. The caller bounds the body
// size (http.MaxBytesReader); the inner decoder additionally caps the
// declared payload allocation on its own.
func DecodeSubmit(body []byte) (Submission, error) {
	var env submitEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		return Submission{}, fmt.Errorf("ingest: submission envelope: %v: %w", err, ErrBadSubmit)
	}
	if env.Shard == "" {
		return Submission{}, fmt.Errorf("ingest: submission without a shard id: %w", ErrBadSubmit)
	}
	if len(env.Profile) == 0 {
		return Submission{}, fmt.Errorf("ingest: submission %q without a profile payload: %w", env.Shard, ErrBadSubmit)
	}
	db, err := profile.LoadDB(bytes.NewReader(env.Profile))
	if err != nil {
		return Submission{}, fmt.Errorf("ingest: submission %q: %w", env.Shard, err)
	}
	return Submission{Shard: env.Shard, DB: db, wire: env.Profile}, nil
}

// The drain-handoff wire format reuses the same double-envelope layering
// as submissions: the donor's whole aggregate rides as profile.Save
// bytes (inner CRC32-C, version field), wrapped in JSON naming the donor
// instance and the shard ids its admission ledger holds. Shipping the
// ledger is what keeps the tier's dedupe honest across a drain: a client
// retrying a shard the donor already merged hits the successor next, and
// the successor must answer "duplicate", not merge it twice.
type handoffEnvelope struct {
	From    string   `json:"from"`
	Profile []byte   `json:"profile"`
	Shards  []string `json:"shards"`
}

// Handoff is one decoded drain handoff: a donor instance's full
// aggregate plus its admitted-shard ledger.
type Handoff struct {
	// From is the donor's instance id (ledger provenance).
	From string
	// DB is the donor's aggregate, loss ledger included.
	DB *profile.DB
	// wire holds the PMDB bytes DecodeHandoff verified into DB; the
	// WAL handoff record stages them verbatim.
	wire []byte
	// Shards are the shard ids the donor had admitted (queued or
	// merged); the receiver marks them admitted so retries dedupe.
	Shards []string
	// Key is the envelope's content digest (set by DecodeHandoff over
	// the wire bytes, and carried through WAL records). A redelivery of
	// the SAME serialized envelope — a donor or router retrying after a
	// lost 202 — carries the same key, so AcceptHandoff dedupes it to a
	// duplicate ack instead of double-merging the donor's samples. A
	// donor that re-ENCODES (crash and re-drain) gets a fresh key; only
	// byte-identical retries dedupe, which is exactly the retry contract
	// (the sender must reuse the encoded body, as the export cache and
	// DrainHandoff both do).
	Key string
}

// HandoffKey digests a handoff envelope's content. Deterministic over
// the serialized fields, not the JSON framing, so the key survives a
// WAL round trip.
func HandoffKey(from string, profileBytes []byte, shards []string) string {
	h := sha256.New()
	io.WriteString(h, from)
	h.Write([]byte{0})
	h.Write(profileBytes)
	for _, sh := range shards {
		h.Write([]byte{0})
		io.WriteString(h, sh)
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// EncodeHandoff serializes a donor aggregate for shipment to the ring
// successor. save is the donor's serializer (SafeDB.Save, which copies
// the aggregate under its lock and encodes the copy outside it).
func EncodeHandoff(from string, save func(io.Writer) error, shards []string) ([]byte, error) {
	if from == "" {
		return nil, fmt.Errorf("ingest: encode handoff: empty instance id: %w", ErrBadSubmit)
	}
	var buf bytes.Buffer
	if err := save(&buf); err != nil {
		return nil, err
	}
	return json.Marshal(handoffEnvelope{From: from, Profile: buf.Bytes(), Shards: shards})
}

// DecodeHandoff parses a handoff body with the same typed-failure
// contract as DecodeSubmit.
func DecodeHandoff(body []byte) (Handoff, error) {
	var env handoffEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		return Handoff{}, fmt.Errorf("ingest: handoff envelope: %v: %w", err, ErrBadSubmit)
	}
	if env.From == "" {
		return Handoff{}, fmt.Errorf("ingest: handoff without a donor instance id: %w", ErrBadSubmit)
	}
	if len(env.Profile) == 0 {
		return Handoff{}, fmt.Errorf("ingest: handoff from %q without a profile payload: %w", env.From, ErrBadSubmit)
	}
	db, err := profile.LoadDB(bytes.NewReader(env.Profile))
	if err != nil {
		return Handoff{}, fmt.Errorf("ingest: handoff from %q: %w", env.From, err)
	}
	return Handoff{
		From:   env.From,
		DB:     db,
		wire:   env.Profile,
		Shards: env.Shards,
		Key:    HandoffKey(env.From, env.Profile, env.Shards),
	}, nil
}
