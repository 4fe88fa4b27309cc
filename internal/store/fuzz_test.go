package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// fuzzKey is the key every FuzzDiskEntry input is filed under.
var fuzzKey = Key{Workload: "HS,CONS", Policy: "Mosaic", ConfigDigest: "0123456789abcdef"}

// entryFile renders a disk entry the way Put writes one: a JSON header
// line naming key, payload length and payload SHA-256, then the payload.
// edit, when set, changes the header before it is encoded.
func entryFile(t testing.TB, key Key, payload []byte, edit func(*header)) []byte {
	t.Helper()
	sum := sha256.Sum256(payload)
	h := header{
		Workload: key.Workload, Policy: key.Policy, ConfigDigest: key.ConfigDigest,
		PayloadSHA256: hex.EncodeToString(sum[:]), PayloadBytes: len(payload),
	}
	if edit != nil {
		edit(&h)
	}
	b, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	return append(append(b, '\n'), payload...)
}

// validEntry reports the payload of entry file b if it is a valid entry
// for key: a header line whose key fields name key and whose length and
// SHA-256 describe the bytes after it.
func validEntry(b []byte, key Key) ([]byte, bool) {
	line, payload, ok := bytes.Cut(b, []byte{'\n'})
	if !ok {
		return nil, false
	}
	var h header
	if json.Unmarshal(line, &h) != nil {
		return nil, false
	}
	sum := sha256.Sum256(payload)
	if h.Workload != key.Workload || h.Policy != key.Policy || h.ConfigDigest != key.ConfigDigest ||
		h.PayloadBytes != len(payload) || h.PayloadSHA256 != hex.EncodeToString(sum[:]) {
		return nil, false
	}
	return payload, true
}

// FuzzDiskEntry writes arbitrary bytes as the entry file of one key and
// reads it through Get. Get must return the payload, and leave the file
// in place, exactly when the header names the key and the payload's
// length and SHA-256; anything else must read as ErrNotFound with the
// file quarantined under its original bytes. Nothing may panic.
func FuzzDiskEntry(f *testing.F) {
	payload := []byte(`{"Policy": "Mosaic", "Cycles": 12345}` + "\n")
	valid := entryFile(f, fuzzKey, payload, nil)
	if _, ok := validEntry(valid, fuzzKey); !ok {
		f.Fatal("the valid seed does not verify")
	}
	line := bytes.IndexByte(valid, '\n')
	flipped := bytes.Clone(valid)
	flipped[len(flipped)-2] ^= 0x01
	f.Add(valid)
	f.Add(valid[:line/2])                                                                                              // truncated header
	f.Add(valid[:len(valid)-5])                                                                                        // truncated payload
	f.Add(flipped)                                                                                                     // one flipped payload byte
	f.Add(entryFile(f, Key{Workload: "HS,CONS", Policy: "GPU-MMU", ConfigDigest: fuzzKey.ConfigDigest}, payload, nil)) // wrong key
	f.Add(entryFile(f, fuzzKey, payload, func(h *header) { h.PayloadBytes = -1 }))
	f.Add(entryFile(f, fuzzKey, payload, func(h *header) { h.PayloadBytes = 1 << 62 }))
	length := fmt.Appendf(nil, `"PayloadBytes":%d`, len(payload))
	if !bytes.Contains(valid, length) {
		f.Fatalf("the valid seed's header lacks %s", length)
	}
	f.Add(bytes.Replace(valid, length, []byte(`"PayloadBytes":1e30`), 1)) // overflows int
	f.Add([]byte{})

	s, err := NewDisk(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	s.SetQuarantineKeep(-1) // each input removes its own quarantined file
	path := s.path(fuzzKey)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		defer os.Remove(path)
		defer os.Remove(path + quarantineExt)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		before := s.Counters().Quarantined
		got, err := s.Get(fuzzKey)
		if want, ok := validEntry(data, fuzzKey); ok {
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("valid entry: Get = %q, %v; want %q", got, err, want)
			}
			if _, err := os.Stat(path); err != nil {
				t.Fatalf("valid entry moved: %v", err)
			}
			return
		}
		if !errors.Is(err, ErrNotFound) {
			t.Fatalf("corrupt entry: Get = %q, %v; want ErrNotFound", got, err)
		}
		if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("corrupt entry still in place: %v", err)
		}
		if q, err := os.ReadFile(path + quarantineExt); err != nil || !bytes.Equal(q, data) {
			t.Fatalf("corrupt entry not quarantined under its bytes: %v", err)
		}
		if after := s.Counters().Quarantined; after != before+1 {
			t.Fatalf("quarantined counter %d -> %d, want one more", before, after)
		}
	})
}
