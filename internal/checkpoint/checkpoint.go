// Package checkpoint implements the on-disk container for simulation
// snapshots (DESIGN.md "Checkpoint/Resume"). The container is deliberately
// dumb: a fixed 32-byte header followed by an opaque payload. The header
// carries everything needed to reject a file before interpreting a single
// payload byte:
//
//	offset  size  field
//	     0     4  magic "MCKP"
//	     4     4  format version (little-endian uint32)
//	     8    16  fingerprint — md5 of the run identity (config, scheme,
//	              trace); Load rejects a checkpoint whose fingerprint does
//	              not match the caller's, so a snapshot can never be resumed
//	              against a different simulation
//	    24     4  payload length (little-endian uint32)
//	    28     4  CRC-32 (IEEE) of the payload
//	    32     —  payload (JSON in practice; this package does not care)
//
// Writes are atomic: Save writes to a temp file in the destination
// directory, fsyncs, closes, and renames over the target. A crash mid-write
// leaves either the old checkpoint or a stray temp file — never a torn
// target. Reads are paranoid: the payload length is bounded (MaxPayload)
// and read with io.CopyN so a lying header cannot force a huge allocation,
// and the CRC gates corruption before the payload reaches any decoder.
package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// Version is the current container format version. Bump on any
// payload-incompatible change; Load rejects other versions. Version 2
// added the resolved digest pointers of frame layouts to the simulation
// payload, which a version-1 payload lacks. That payload is now the frame
// cursor alone, which every version-2 payload carries, so the version
// stands.
const Version = 2

// MaxPayload bounds the payload a reader will allocate for (1 GiB). Real
// checkpoints are kilobytes to low megabytes; anything near the cap is
// corruption or abuse.
const MaxPayload = 1 << 30

// headerLen is the fixed container header size in bytes.
const headerLen = 32

var magic = [4]byte{'M', 'C', 'K', 'P'}

// ErrCorrupt wraps every validation failure on the read path, so callers can
// distinguish "bad file" from I/O errors with errors.Is.
var ErrCorrupt = errors.New("checkpoint: corrupt")

// Fingerprint identifies the run a snapshot belongs to (md5 of the run's
// canonical identity). The zero value matches nothing but itself.
type Fingerprint [16]byte

func (f Fingerprint) String() string { return fmt.Sprintf("%x", f[:]) }

// Encode serializes one container to w.
func Encode(w io.Writer, fp Fingerprint, payload []byte) error {
	if len(payload) > MaxPayload {
		return fmt.Errorf("checkpoint: payload %d bytes exceeds cap %d", len(payload), MaxPayload)
	}
	var hdr [headerLen]byte
	copy(hdr[0:4], magic[:])
	binary.LittleEndian.PutUint32(hdr[4:8], Version)
	copy(hdr[8:24], fp[:])
	binary.LittleEndian.PutUint32(hdr[24:28], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[28:32], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// Decode reads and validates one container from r, returning the payload.
// Every malformed input yields an error wrapping ErrCorrupt; Decode never
// panics and never allocates more than the bytes actually present in r
// (plus the bounded header).
func Decode(r io.Reader, want Fingerprint) ([]byte, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: short header: %v", ErrCorrupt, err)
	}
	if !bytes.Equal(hdr[0:4], magic[:]) {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, hdr[0:4])
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != Version {
		return nil, fmt.Errorf("%w: format version %d, want %d", ErrCorrupt, v, Version)
	}
	var fp Fingerprint
	copy(fp[:], hdr[8:24])
	if fp != want {
		return nil, fmt.Errorf("%w: fingerprint %s does not match run identity %s (different config, scheme, or trace)",
			ErrCorrupt, fp, want)
	}
	n := binary.LittleEndian.Uint32(hdr[24:28])
	if n > MaxPayload {
		return nil, fmt.Errorf("%w: payload length %d exceeds cap %d", ErrCorrupt, n, MaxPayload)
	}
	// CopyN, not ReadFull into make([]byte, n): a truncated file with a lying
	// length only buffers the bytes actually present.
	var buf bytes.Buffer
	if _, err := io.CopyN(&buf, r, int64(n)); err != nil {
		return nil, fmt.Errorf("%w: short payload: %v", ErrCorrupt, err)
	}
	payload := buf.Bytes()
	if got, wantCRC := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(hdr[28:32]); got != wantCRC {
		return nil, fmt.Errorf("%w: payload CRC %08x, header says %08x", ErrCorrupt, got, wantCRC)
	}
	return payload, nil
}

// DecodeBytes is Decode over an in-memory container.
func DecodeBytes(b []byte, want Fingerprint) ([]byte, error) {
	return Decode(bytes.NewReader(b), want)
}

// EncodeBytes is Encode into a fresh byte slice — the in-memory dual of
// DecodeBytes, used by fuzz targets and tests that corrupt containers
// without touching the filesystem.
func EncodeBytes(fp Fingerprint, payload []byte) ([]byte, error) {
	var buf bytes.Buffer
	buf.Grow(headerLen + len(payload))
	if err := Encode(&buf, fp, payload); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Save atomically writes a container to path: temp file in the same
// directory, fsync, close, rename. The destination directory is created if
// missing.
func Save(path string, fp Fingerprint, payload []byte) (err error) {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	defer func() {
		if err != nil {
			_ = f.Close()      // best effort: err already reports why Save failed
			_ = os.Remove(tmp) // best effort: a stray temp file is never read as a checkpoint
		}
	}()
	if err = Encode(f, fp, payload); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// Load reads and validates the container at path. A missing file surfaces
// as fs.ErrNotExist (callers typically treat that as "start fresh");
// anything malformed wraps ErrCorrupt.
func Load(path string, want Fingerprint) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	payload, err := Decode(f, want)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return payload, nil
}
