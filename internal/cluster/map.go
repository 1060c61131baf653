package cluster

import "fmt"

// Map is the versioned cluster assignment the control plane publishes: for
// every partition, the base URLs of its replica set, primary first. Epochs
// are strictly increasing; a router only ever moves forward (ApplyMap
// rejects stale epochs), so a delayed gossip of an old map can never roll
// the routing state back. Bounds, when present, pin the row split the
// assignment was built for (the same par.Split ranges as Manifest.Bounds),
// letting a router cross-check a rebalanced layout before serving it.
type Map struct {
	Epoch     int64      `json:"epoch"`
	TotalRows int        `json:"totalRows,omitempty"`
	Bounds    []int      `json:"bounds,omitempty"`
	Replicas  [][]string `json:"replicas"`
}

// SingleMap wraps a PR-4 style one-node-per-partition URL list as an
// epoch-1 map with single-replica sets — the compatibility constructor
// NewRouter uses, so an unreplicated cluster is just the R=1 special case
// of the replicated one.
func SingleMap(nodeURLs []string) Map {
	m := Map{Epoch: 1, Replicas: make([][]string, len(nodeURLs))}
	for i, u := range nodeURLs {
		m.Replicas[i] = []string{u}
	}
	return m
}

// Partitions returns the partition count P.
func (m Map) Partitions() int { return len(m.Replicas) }

// Validate rejects maps a router must not serve from: no partitions, an
// empty replica set, a blank URL, one URL assigned twice (a node serves
// exactly one partition slice), a non-positive epoch, or bounds that do not
// line up with the partition count.
func (m Map) Validate() error {
	if m.Epoch <= 0 {
		return fmt.Errorf("cluster: map epoch must be positive, got %d", m.Epoch)
	}
	if len(m.Replicas) == 0 {
		return fmt.Errorf("cluster: map has no partitions")
	}
	seen := make(map[string]int, len(m.Replicas))
	for p, urls := range m.Replicas {
		if len(urls) == 0 {
			return fmt.Errorf("cluster: partition %d has no replicas", p)
		}
		for _, u := range urls {
			if u == "" {
				return fmt.Errorf("cluster: partition %d has an empty replica URL", p)
			}
			if prev, dup := seen[u]; dup {
				return fmt.Errorf("cluster: replica %s assigned to both partition %d and %d", u, prev, p)
			}
			seen[u] = p
		}
	}
	if len(m.Bounds) > 0 {
		if len(m.Bounds) != len(m.Replicas)+1 {
			return fmt.Errorf("cluster: map has %d bounds for %d partitions", len(m.Bounds), len(m.Replicas))
		}
		if m.Bounds[0] != 0 || (m.TotalRows > 0 && m.Bounds[len(m.Bounds)-1] != m.TotalRows) {
			return fmt.Errorf("cluster: map bounds do not span [0, %d)", m.TotalRows)
		}
	}
	return nil
}

// Clone deep-copies the map so a published version can never be mutated by
// a caller still holding the input.
func (m Map) Clone() Map {
	c := m
	c.Bounds = append([]int(nil), m.Bounds...)
	c.Replicas = make([][]string, len(m.Replicas))
	for i, urls := range m.Replicas {
		c.Replicas[i] = append([]string(nil), urls...)
	}
	return c
}
