package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"emblookup/internal/core"
	"emblookup/internal/kg"
	"emblookup/internal/par"
)

// Manifest describes how a model's entity index was split across nodes. It
// is written next to the per-node artifacts and is all a router or node
// needs (besides the graph) to agree on the partitioning: bounds come from
// the same deterministic row split sharded scans use (par.Split), so
// partition i serves global index rows [Bounds[i], Bounds[i+1]).
type Manifest struct {
	// Partitions is the node count P (may be lower than requested when the
	// index has fewer rows than partitions).
	Partitions int `json:"partitions"`
	// TotalRows is the full index's row count; partitions cover [0,
	// TotalRows) disjointly.
	TotalRows int `json:"totalRows"`
	// Dim is the embedding dimensionality every node must agree on.
	Dim int `json:"dim"`
	// Bounds has length Partitions+1.
	Bounds []int `json:"bounds"`
}

// PartitionBounds returns the deterministic row split a P-way cluster uses:
// the same contiguous near-equal ranges as index.Sharded (par.Split), so a
// P-node cluster's partitions line up with a P-shard single-process scan.
func PartitionBounds(totalRows, p int) []int {
	return par.Split(totalRows, p)
}

// BuildPartitions splits model into P per-node sibling models, each holding
// only its slice of the index (core.WithPartition), plus the manifest
// binding them together. The slices share the parent's storage; nothing is
// re-embedded or retrained. Each part is a sibling of model and must be
// closed.
func BuildPartitions(model *core.EmbLookup, p int) ([]*core.EmbLookup, Manifest, error) {
	if p <= 0 {
		return nil, Manifest{}, fmt.Errorf("cluster: partition count must be positive, got %d", p)
	}
	n := model.Index().Len()
	bounds := PartitionBounds(n, p)
	parts := make([]*core.EmbLookup, len(bounds)-1)
	for i := range parts {
		pm, err := model.WithPartition(bounds[i], bounds[i+1])
		if err != nil {
			closeAll(parts[:i])
			return nil, Manifest{}, fmt.Errorf("cluster: partition %d: %w", i, err)
		}
		parts[i] = pm
	}
	man := Manifest{
		Partitions: len(parts),
		TotalRows:  n,
		Dim:        model.Index().Dim(),
		Bounds:     bounds,
	}
	return parts, man, nil
}

// closeAll closes every model in ms.
func closeAll(ms []*core.EmbLookup) {
	for _, m := range ms {
		m.Close()
	}
}

// manifestName and nodeFileName fix the artifact layout SavePartitions
// writes and LoadNodeModel reads.
const manifestName = "manifest.json"

func nodeFileName(i int) string { return fmt.Sprintf("node-%d.bin", i) }

// SavePartitions partitions model P ways and writes one artifact per node
// into dir — node-<i>.bin via SaveFileWithIndex, so a node's cold start is
// IO-bound and loads only its slice — plus manifest.json.
func SavePartitions(dir string, model *core.EmbLookup, p int) (Manifest, error) {
	parts, man, err := BuildPartitions(model, p)
	if err != nil {
		return Manifest{}, err
	}
	defer closeAll(parts)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return Manifest{}, err
	}
	for i, pm := range parts {
		if err := pm.SaveFileWithIndex(filepath.Join(dir, nodeFileName(i))); err != nil {
			return Manifest{}, fmt.Errorf("cluster: saving partition %d: %w", i, err)
		}
	}
	buf, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return Manifest{}, err
	}
	buf = append(buf, '\n')
	// The manifest lands last and atomically: a crash mid-save leaves either
	// the previous complete layout or no manifest — never a manifest
	// pointing at half-written node artifacts (those are atomic themselves,
	// via core.AtomicWriteFile).
	err = core.AtomicWriteFile(filepath.Join(dir, manifestName), func(w io.Writer) error {
		_, werr := w.Write(buf)
		return werr
	})
	if err != nil {
		return Manifest{}, err
	}
	return man, nil
}

// LoadManifest reads the manifest written by SavePartitions.
func LoadManifest(dir string) (Manifest, error) {
	buf, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return Manifest{}, err
	}
	var man Manifest
	if err := json.Unmarshal(buf, &man); err != nil {
		return Manifest{}, fmt.Errorf("cluster: %s: %w", filepath.Join(dir, manifestName), err)
	}
	if len(man.Bounds) != man.Partitions+1 {
		return Manifest{}, fmt.Errorf("cluster: manifest has %d bounds for %d partitions", len(man.Bounds), man.Partitions)
	}
	return man, nil
}

// LoadNodeModel loads partition i's artifact from dir (attaching its saved
// index slice) and returns it with the manifest.
func LoadNodeModel(dir string, i int, g *kg.Graph) (*core.EmbLookup, Manifest, error) {
	man, err := LoadManifest(dir)
	if err != nil {
		return nil, Manifest{}, err
	}
	if i < 0 || i >= man.Partitions {
		return nil, Manifest{}, fmt.Errorf("cluster: partition %d outside manifest's %d partitions", i, man.Partitions)
	}
	m, err := core.LoadFile(filepath.Join(dir, nodeFileName(i)), g)
	if err != nil {
		return nil, Manifest{}, fmt.Errorf("cluster: loading partition %d: %w", i, err)
	}
	if got := m.Index().Len(); got != man.Bounds[i+1]-man.Bounds[i] {
		m.Close()
		return nil, Manifest{}, fmt.Errorf("cluster: partition %d holds %d rows, manifest says %d", i, got, man.Bounds[i+1]-man.Bounds[i])
	}
	return m, man, nil
}
