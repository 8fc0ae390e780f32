// Package frame is the repository's one binary framing layer. Every
// durable or shipped byte stream — profile databases (PMDB), service
// checkpoints (PMCK), write-ahead-log segments (PMWS) and traffic traces
// (PMTF) — is built from three primitives:
//
//	header:   magic[4] | version u32 | word u64
//	envelope: header (word = payload length) | payload | crc32c(payload) u32
//	record:   payload length u32 | crc32c(payload) u32 | payload
//
// All integers are little-endian. Every read is typed: a failure wraps
// exactly one of ErrCorrupt, ErrTruncated or ErrVersionSkew, so callers
// classify damage with errors.Is the same way for every format. Every
// read also enforces a caller-given cap on declared lengths, so a forged
// length field cannot drive allocation.
package frame

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Typed read failures.
var (
	// ErrCorrupt: the bytes are not the expected format — bad magic,
	// checksum mismatch, an over-cap declared length, or a payload its
	// format's decoder rejects.
	ErrCorrupt = errors.New("corrupt")
	// ErrTruncated: the stream ended before the framing said it would
	// (interrupted write, partial copy, torn tail).
	ErrTruncated = errors.New("truncated")
	// ErrVersionSkew: a well-formed header written by a different
	// format version.
	ErrVersionSkew = errors.New("version skew")
)

const (
	// HeaderLen is the header size: magic[4] + version u32 + word u64.
	HeaderLen = 16
	// RecordHeaderLen is the record frame prefix: length u32 + CRC32-C u32.
	RecordHeaderLen = 8
	// growChunk bounds the up-front allocation for a declared length the
	// reader cannot confirm is present; larger payloads grow as bytes
	// actually arrive.
	growChunk = 64 << 10
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// checksum is the CRC32-C every frame carries.
func checksum(p []byte) uint32 { return crc32.Checksum(p, crcTable) }

// Format names one headed format: its 4-byte magic, the version this
// build writes, and the oldest version it still reads.
type Format struct {
	Magic   string
	Version uint32
	// Oldest is the oldest version readers accept, for a format whose
	// earlier version is still read so stored bytes can be upgraded;
	// zero means Version only. Writers always write Version.
	Oldest uint32
}

// oldest returns the oldest version f reads.
func (f Format) oldest() uint32 {
	if f.Oldest == 0 {
		return f.Version
	}
	return f.Oldest
}

// Header returns the encoded header carrying word.
func (f Format) Header(word uint64) [HeaderLen]byte {
	var h [HeaderLen]byte
	copy(h[0:4], f.Magic)
	binary.LittleEndian.PutUint32(h[4:8], f.Version)
	binary.LittleEndian.PutUint64(h[8:16], word)
	return h
}

// WriteHeader writes the header carrying word.
func (f Format) WriteHeader(w io.Writer, word uint64) error {
	h := f.Header(word)
	_, err := w.Write(h[:])
	return err
}

// ReadHeader reads a header and returns its word. A short read is
// ErrTruncated, foreign magic ErrCorrupt, a version outside
// [Oldest, Version] ErrVersionSkew.
func (f Format) ReadHeader(r io.Reader) (uint64, error) {
	_, word, err := f.readHeader(r)
	return word, err
}

func (f Format) readHeader(r io.Reader) (version uint32, word uint64, err error) {
	var h [HeaderLen]byte
	if _, err := io.ReadFull(r, h[:]); err != nil {
		return 0, 0, fmt.Errorf("%s header: %w", f.Magic, ErrTruncated)
	}
	if string(h[0:4]) != f.Magic {
		return 0, 0, fmt.Errorf("%s header: bad magic %q: %w", f.Magic, h[0:4], ErrCorrupt)
	}
	version = binary.LittleEndian.Uint32(h[4:8])
	if version < f.oldest() || version > f.Version {
		if f.oldest() == f.Version {
			return 0, 0, fmt.Errorf("%s format v%d, this build reads v%d: %w", f.Magic, version, f.Version, ErrVersionSkew)
		}
		return 0, 0, fmt.Errorf("%s format v%d, this build reads v%d-v%d: %w", f.Magic, version, f.oldest(), f.Version, ErrVersionSkew)
	}
	return version, binary.LittleEndian.Uint64(h[8:16]), nil
}

// WriteEnvelope writes payload as header, payload, CRC32-C trailer.
func (f Format) WriteEnvelope(w io.Writer, payload []byte) error {
	if err := f.WriteHeader(w, uint64(len(payload))); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], checksum(payload))
	_, err := w.Write(crc[:])
	return err
}

// SealEnvelope completes an envelope built in place: env holds HeaderLen
// bytes of room followed by the payload. It fills in the header and
// appends the checksum, so a writer can build the envelope in one
// buffer and hand it to one Write.
func (f Format) SealEnvelope(env []byte) []byte {
	payload := env[HeaderLen:]
	h := f.Header(uint64(len(payload)))
	copy(env, h[:])
	return binary.LittleEndian.AppendUint32(env, checksum(payload))
}

// ReadEnvelope reads an envelope whose declared payload length must not
// exceed limit, and returns the checksum-verified payload.
func (f Format) ReadEnvelope(r io.Reader, limit uint64) ([]byte, error) {
	_, payload, err := f.ReadVersionedEnvelope(r, limit)
	return payload, err
}

// ReadVersionedEnvelope is ReadEnvelope for a format that reads more
// than one version: it also returns the version the header names, so
// the caller picks the payload decoder from one read of the input.
func (f Format) ReadVersionedEnvelope(r io.Reader, limit uint64) (uint32, []byte, error) {
	version, n, err := f.readHeader(r)
	if err != nil {
		return 0, nil, err
	}
	if n > limit {
		return 0, nil, fmt.Errorf("%s declared payload %d exceeds %d: %w", f.Magic, n, limit, ErrCorrupt)
	}
	payload, err := readPayload(r, int(n), nil)
	if err != nil {
		return 0, nil, fmt.Errorf("%s payload: %w", f.Magic, ErrTruncated)
	}
	var crc [4]byte
	if _, err := io.ReadFull(r, crc[:]); err != nil {
		return 0, nil, fmt.Errorf("%s checksum: %w", f.Magic, ErrTruncated)
	}
	if got, want := checksum(payload), binary.LittleEndian.Uint32(crc[:]); got != want {
		return 0, nil, fmt.Errorf("%s checksum %08x != %08x: %w", f.Magic, got, want, ErrCorrupt)
	}
	return version, payload, nil
}

// RecordHeader returns the record frame prefix for payload. Writers that
// hold a concrete file use it directly to keep the prefix off the heap.
func RecordHeader(payload []byte) [RecordHeaderLen]byte {
	var h [RecordHeaderLen]byte
	binary.LittleEndian.PutUint32(h[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(h[4:8], checksum(payload))
	return h
}

// WriteRecord writes one record frame.
func WriteRecord(w io.Writer, payload []byte) error {
	h := RecordHeader(payload)
	if _, err := w.Write(h[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadRecord reads one record frame whose declared length must not
// exceed limit, reusing buf's capacity for the payload. io.EOF means the
// stream ended cleanly on a record boundary; a torn frame is
// ErrTruncated, an over-cap length or a checksum mismatch ErrCorrupt.
func ReadRecord(r io.Reader, limit int, buf []byte) ([]byte, error) {
	var h [RecordHeaderLen]byte
	if _, err := io.ReadFull(r, h[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("record frame: %w", ErrTruncated)
	}
	n := binary.LittleEndian.Uint32(h[0:4])
	if uint64(n) > uint64(limit) {
		return nil, fmt.Errorf("declared record %d bytes exceeds %d: %w", n, limit, ErrCorrupt)
	}
	payload, err := readPayload(r, int(n), buf)
	if err != nil {
		return nil, fmt.Errorf("record payload: %w", ErrTruncated)
	}
	if got, want := checksum(payload), binary.LittleEndian.Uint32(h[4:8]); got != want {
		return nil, fmt.Errorf("record checksum %08x != %08x: %w", got, want, ErrCorrupt)
	}
	return payload, nil
}

// readPayload reads exactly n bytes, reusing buf's capacity. A declared
// length is only a claim: unless the reader can vouch for it up front
// (bytes.Reader and friends report Len), a length beyond growChunk grows
// the buffer as bytes arrive, so a forged length under the cap costs
// what the stream holds rather than what it claims.
func readPayload(r io.Reader, n int, buf []byte) ([]byte, error) {
	step := growChunk
	if lr, ok := r.(interface{ Len() int }); ok {
		if lr.Len() < n {
			return nil, io.ErrUnexpectedEOF
		}
		step = n
	}
	buf = buf[:0]
	for len(buf) < n {
		if len(buf) == cap(buf) {
			grown := make([]byte, len(buf), len(buf)+min(n-len(buf), max(len(buf), step)))
			copy(grown, buf)
			buf = grown
		}
		k, err := io.ReadFull(r, buf[len(buf):min(cap(buf), n)])
		buf = buf[:len(buf)+k]
		if err != nil {
			return nil, err
		}
	}
	return buf, nil
}
