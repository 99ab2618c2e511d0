package main

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
)

// Inspecting a directory that does not exist fails with the stat error
// and leaves no directory behind.
func TestOpenStoreMissingDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "typo")
	if _, err := openStore(dir, ""); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("openStore(missing) = %v, want a not-exist error", err)
	}
	if _, err := os.Stat(dir); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("openStore created %s (stat: %v)", dir, err)
	}
	if _, err := openStore(t.TempDir(), ""); err != nil {
		t.Fatalf("openStore(existing) = %v", err)
	}
}
