package ingest

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"

	"profileme/internal/profile"
)

// WAL record payloads reuse the submission codec's double-envelope
// layering: a small JSON frame naming the record kind, wrapped around
// the binary profile envelope of DESIGN.md §7. The WAL adds its own
// CRC32-C frame per record, so a damaged record is cut at the WAL layer
// before this codec ever sees it. The inner profile envelope is the
// sender's own bytes, already CRC-checked and decoded by DecodeSubmit or
// DecodeHandoff, staged verbatim.
//
// Three kinds exist. Refusals deliberately have no record: a refusal
// is just the ABSENCE of a resolution for an admit record, and the
// standing-loss ledger entry rides in the next checkpoint. Replaying an
// admit record whose submission was refused pre-crash merges it instead
// — strictly better (the payload was durable anyway), and conservation
// holds because the shard's captured samples count once either way.
// Adopt records carry no profile: a ledger adoption moves DEDUPE
// obligations (shard ids whose samples live elsewhere in the fleet),
// never samples, so replaying one reconstructs admitted-with-provenance
// entries and nothing in the aggregate.
const (
	walKindAdmit   = "admit"
	walKindHandoff = "handoff"
	walKindAdopt   = "adopt"
)

// ErrBadWALRecord reports a structurally invalid WAL record payload —
// possible only through an encoder bug or post-CRC memory corruption,
// so replay treats it as a torn record (stop, don't crash).
var ErrBadWALRecord = errors.New("ingest: malformed wal record")

// walEnvelope is the JSON frame ([]byte marshals as base64).
type walEnvelope struct {
	Kind    string   `json:"kind"`
	Shard   string   `json:"shard,omitempty"`  // admit
	From    string   `json:"from,omitempty"`   // handoff/adopt: donor instance
	Shards  []string `json:"shards,omitempty"` // handoff/adopt: shard ids
	Key     string   `json:"key,omitempty"`    // handoff: envelope content digest
	Profile []byte   `json:"profile,omitempty"`
}

// errNoWireBytes reports a submission or handoff built without the codec:
// the WAL stages the verified wire bytes and has nothing else to log.
var errNoWireBytes = errors.New("no verified profile bytes (build it with DecodeSubmit or DecodeHandoff)")

// encodeAdmitRecord serializes a submission for the WAL around the
// profile bytes DecodeSubmit verified.
func encodeAdmitRecord(sub Submission) ([]byte, error) {
	if len(sub.wire) == 0 {
		return nil, fmt.Errorf("shard %q: %w", sub.Shard, errNoWireBytes)
	}
	return json.Marshal(walEnvelope{Kind: walKindAdmit, Shard: sub.Shard, Profile: sub.wire})
}

// encodeHandoffRecord serializes an accepted drain handoff for the WAL
// around the profile bytes DecodeHandoff verified, carrying the content
// key those bytes were digested into.
func encodeHandoffRecord(h Handoff) ([]byte, error) {
	if len(h.wire) == 0 {
		return nil, fmt.Errorf("handoff from %q: %w", h.From, errNoWireBytes)
	}
	return json.Marshal(walEnvelope{Kind: walKindHandoff, From: h.From, Shards: h.Shards, Key: h.Key, Profile: h.wire})
}

// encodeAdoptRecord serializes a ledger adoption (no profile payload:
// adoption moves dedupe obligations, not samples).
func encodeAdoptRecord(from string, shards []string) ([]byte, error) {
	return json.Marshal(walEnvelope{Kind: walKindAdopt, From: from, Shards: shards})
}

// decodeWALRecord parses one WAL record payload. Exactly one of sub or
// h is meaningful, selected by kind.
func decodeWALRecord(payload []byte) (kind string, sub Submission, h Handoff, err error) {
	var env walEnvelope
	if err := json.Unmarshal(payload, &env); err != nil {
		return "", Submission{}, Handoff{}, fmt.Errorf("ingest: wal record envelope: %v: %w", err, ErrBadWALRecord)
	}
	if env.Kind == walKindAdopt {
		// Adoption records are profile-free by design.
		if env.From == "" || len(env.Shards) == 0 {
			return "", Submission{}, Handoff{}, fmt.Errorf("ingest: wal adopt record without donor or shards: %w", ErrBadWALRecord)
		}
		return walKindAdopt, Submission{}, Handoff{From: env.From, Shards: env.Shards}, nil
	}
	if len(env.Profile) == 0 {
		return "", Submission{}, Handoff{}, fmt.Errorf("ingest: wal %s record without a profile payload: %w", env.Kind, ErrBadWALRecord)
	}
	db, err := profile.LoadDB(bytes.NewReader(env.Profile))
	if err != nil {
		return "", Submission{}, Handoff{}, fmt.Errorf("ingest: wal %s record: %w", env.Kind, err)
	}
	switch env.Kind {
	case walKindAdmit:
		if env.Shard == "" {
			return "", Submission{}, Handoff{}, fmt.Errorf("ingest: wal admit record without a shard id: %w", ErrBadWALRecord)
		}
		return walKindAdmit, Submission{Shard: env.Shard, DB: db}, Handoff{}, nil
	case walKindHandoff:
		if env.From == "" {
			return "", Submission{}, Handoff{}, fmt.Errorf("ingest: wal handoff record without a donor id: %w", ErrBadWALRecord)
		}
		return walKindHandoff, Submission{}, Handoff{From: env.From, DB: db, Shards: env.Shards, Key: env.Key}, nil
	}
	return "", Submission{}, Handoff{}, fmt.Errorf("ingest: wal record kind %q: %w", env.Kind, ErrBadWALRecord)
}
