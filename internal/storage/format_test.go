package storage

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"learnedindex/internal/core"
	"learnedindex/internal/data"
)

// Golden SHA-256 hashes of the on-disk images the engine writes for fixed
// inputs. Round-trip tests cannot see a format drift that both the writer
// and the reader adopt; these can. An intentional format change must bump
// the segment magic or the WAL file prefix, and these hashes.
const (
	goldenSegV1Hash  = "06db94d0447cb6d30092e6529bbfb9ee8879ae750173dc3899a07b7575f28b67"
	goldenSegV2Hash  = "41b3deaf6e2d948564129ce7016440e898967d3fd6f5a5a2fedaf13ffbd53ea8"
	goldenWALHash    = "953d4c8e83970ca120f09f43621f4aa82fbef0abef8ca3048a7e4b0b4846418a"
	goldenWALStrHash = "58933e115f1642d498fdb8c2fb8190e6dea6a313584320b03a01003a2a4cae3e"
)

// goldenImages drives one engine through the public write path — an
// AppendBatch record and a CommitBatch cohort frame, then a Flush — and
// returns the WAL file as synced before the flush and the one segment the
// flush wrote.
func goldenImages(t *testing.T, strMode bool) (walImg, segImg []byte) {
	t.Helper()
	dir := t.TempDir()
	e := openT(t, dir, Options{StringKeys: strMode, NoCompactor: true, Config: core.DefaultConfig(64)})
	defer e.Close()
	var walName string
	if strMode {
		keys := stringTestKeys(2_000, 41)
		if err := e.AppendStringBatch(keys[:1_000]); err != nil {
			t.Fatal(err)
		}
		if err := e.CommitStringBatch(keys[1_000:]); err != nil {
			t.Fatal(err)
		}
		walName = walStrFileName(0)
	} else {
		keys := data.Dense(2_000, 1_000, 7)
		if err := e.AppendBatch(keys[:1_000]); err != nil {
			t.Fatal(err)
		}
		if err := e.CommitBatch(keys[1_000:]); err != nil {
			t.Fatal(err)
		}
		walName = walFileName(0)
	}
	walImg, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	segImg, err = os.ReadFile(filepath.Join(dir, segmentFileName(0, 0)))
	if err != nil {
		t.Fatal(err)
	}
	return walImg, segImg
}

func TestGoldenOnDiskFormats(t *testing.T) {
	check := func(name string, img []byte, want string) {
		t.Helper()
		sum := sha256.Sum256(img)
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("%s image drifted:\n got %s\nwant %s", name, got, want)
		}
	}
	walU, segU := goldenImages(t, false)
	check("LIXSEG01 segment", segU, goldenSegV1Hash)
	check("wal- record", walU, goldenWALHash)
	walS, segS := goldenImages(t, true)
	check("LIXSEG02 segment", segS, goldenSegV2Hash)
	check("wals- record", walS, goldenWALStrHash)
}
