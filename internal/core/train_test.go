package core

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"emblookup/internal/kg"
)

// TestTrainDeterministicRunToRunAcrossWorkerCounts pins the trainer to
// bytes on disk: testdata/golden_train.bin holds the query-space and
// index-space embeddings of goldenMentions after a full Train on the
// 100-entity graph at Workers 1, 2 and 4. Every run, on every build, must
// reproduce them bit for bit, which implies run-to-run equality at each
// worker count. (Counts do not match each other: each replica worker draws
// its mention-dropout coins from its own RNG stream.) Each run must also
// fill TrainStats. Regenerate with
//
//	go test ./internal/core/ -run TestTrainDeterministicRunToRunAcrossWorkerCounts -update-golden
//
// only after an intentional change to what training computes.
//
// Layout, little-endian: per worker count, the count as uint32, then a
// block in TestEmbedGolden's layout.
func TestTrainDeterministicRunToRunAcrossWorkerCounts(t *testing.T) {
	path := filepath.Join("testdata", "golden_train.bin")
	var want []byte
	if !*updateGolden {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("training golden missing (regenerate with -update-golden): %v", err)
		}
		want = raw
	}
	g, _ := kg.Generate(kg.DefaultGeneratorConfig(kg.WikidataProfile, 100))
	mentions := goldenMentions(g)
	var got []byte
	for _, workers := range []int{1, 2, 4} {
		cfg := testConfig()
		cfg.Epochs = 2
		cfg.TripletsPerEntity = 6
		cfg.NgramEpochs = 3
		cfg.Workers = workers
		var st TrainStats
		e, err := Train(g, cfg, WithTrainStats(&st))
		if err != nil {
			t.Fatal(err)
		}
		if st.SemanticDur <= 0 || st.CombinerDur <= 0 {
			t.Fatalf("workers=%d: TrainStats phases not recorded: %+v", workers, st)
		}
		got = binary.LittleEndian.AppendUint32(got, uint32(workers))
		got = binary.LittleEndian.AppendUint32(got, uint32(len(mentions)))
		got = binary.LittleEndian.AppendUint32(got, uint32(cfg.Dim))
		for i, s := range mentions {
			start := len(got)
			got = appendEmbedRecord(got, e, s)
			if !*updateGolden && (len(want) < len(got) || !bytes.Equal(got[start:], want[start:len(got)])) {
				t.Fatalf("workers=%d: mention %d %q trains to different embeddings than the golden", workers, i, s)
			}
		}
	}
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("training golden rewritten: %d mentions at 3 worker counts", len(mentions))
		return
	}
	if len(got) != len(want) {
		t.Fatalf("training golden holds %d bytes, the trained models %d", len(want), len(got))
	}
}
