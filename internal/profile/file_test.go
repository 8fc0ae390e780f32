package profile

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"profileme/internal/core"
	"profileme/internal/frame"
)

// fileDB builds a small database with a distinguishing sample count.
func fileDB(t *testing.T, n int) *DB {
	t.Helper()
	db := NewDB(100, 0, 4)
	for i := 0; i < n; i++ {
		db.Add(core.Sample{First: rec(0x40+uint64(8*i), true, 0, 2, 3, 5, 9, 12)})
	}
	return db
}

func TestSaveFileLoadFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.db")
	db := fileDB(t, 5)
	db.RecordLoss(3)
	if err := SaveFile(db, path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Samples() != 5 || got.Lost() != 3 {
		t.Fatalf("round trip lost data: samples %d, lost %d", got.Samples(), got.Lost())
	}
}

// TestWriteAtomicFailedWriteLeavesPrevious is the satellite contract: a
// write that fails midway must leave the previous file byte-for-byte
// intact and must not leave a temporary behind.
func TestWriteAtomicFailedWriteLeavesPrevious(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "p.db")
	if err := SaveFile(fileDB(t, 5), path); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	boom := errors.New("disk on fire")
	err = WriteAtomic(path, func(w io.Writer) error {
		io.WriteString(w, "partial garbage that must never reach p.db")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("failure not propagated: %v", err)
	}

	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Fatal("failed write modified the previous file")
	}
	if db, err := LoadFile(path); err != nil || db.Samples() != 5 {
		t.Fatalf("previous database unreadable after failed write: %v", err)
	}
	assertNoTemps(t, dir)
}

// TestSaveFileOverwriteIsAtomic overwrites an existing database and
// checks the new image fully replaces the old with no temp droppings.
func TestSaveFileOverwriteIsAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "p.db")
	if err := SaveFile(fileDB(t, 2), path); err != nil {
		t.Fatal(err)
	}
	if err := SaveFile(fileDB(t, 9), path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Samples() != 9 {
		t.Fatalf("overwrite not applied: %d samples", got.Samples())
	}
	assertNoTemps(t, dir)
}

func TestSaveFileMissingDirectoryFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "no", "such", "dir", "p.db")
	if err := SaveFile(fileDB(t, 1), path); err == nil {
		t.Fatal("save into a missing directory succeeded")
	}
}

func TestLoadFileCorruptTyped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.db")
	if err := SaveFile(fileDB(t, 3), path); err != nil {
		t.Fatal(err)
	}
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	img[len(img)/2] ^= 0x40
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(path); !errors.Is(err, frame.ErrCorrupt) {
		t.Fatalf("bit-flipped file not typed ErrCorrupt: %v", err)
	}
}

func assertNoTemps(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("temporary left behind: %s", e.Name())
		}
	}
}
