package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"strings"

	"emblookup/internal/core"
	"emblookup/internal/kg"
	"emblookup/internal/mathx"
	"emblookup/internal/tabular"
)

// A stream is one workload's request sequence, generated from --seed before
// the child starts and written to a file: one request per line. The served
// program sees only these lines.
type stream struct {
	Name  string // "lookups", "bulk" or "ingests"
	Lines []string
}

// streamInfo is what the output records about a stream.
type streamInfo struct {
	Name     string `json:"name"`
	SHA256   string `json:"sha256"`
	Requests int    `json:"requests"`
}

// cellSep joins the cells of one bulk request on its stream line.
const cellSep = "\t"

// write stores the stream at path and returns its digest and size.
func (s *stream) write(path string) (streamInfo, error) {
	f, err := os.Create(path)
	if err != nil {
		return streamInfo{}, err
	}
	h := sha256.New()
	bw := bufio.NewWriter(f)
	for _, l := range s.Lines {
		bw.WriteString(l)
		bw.WriteByte('\n')
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return streamInfo{}, err
	}
	if err := f.Close(); err != nil {
		return streamInfo{}, err
	}
	return streamInfo{Name: s.Name, SHA256: hex.EncodeToString(h.Sum(nil)), Requests: len(s.Lines)}, nil
}

// noisedLookups draws n mentions uniformly over the entities, each corrupted
// by one of the paper's error classes (tabular.ApplyNoise behind
// Injector.Corrupt) and each distinct after the cache's own normalization,
// so a mention cache can never hit.
func noisedLookups(g *kg.Graph, seed uint64, n int) *stream {
	rng := mathx.NewRNG(seed)
	noise := &tabular.Injector{}
	s := &stream{Name: "lookups", Lines: make([]string, 0, n)}
	seen := make(map[string]bool, n)
	for len(s.Lines) < n {
		id := rng.Intn(len(g.Entities))
		m := noise.Corrupt(g.Entities[id].Label, rng)
		// A graph smaller than the stream runs out of distinct single
		// corruptions; a second one keeps the draw finite.
		for tries := 0; seen[core.NormalizeMention(m)] && tries < 8; tries++ {
			m = noise.Corrupt(m, rng)
		}
		key := core.NormalizeMention(m)
		if seen[key] || strings.TrimSpace(m) == "" {
			continue
		}
		seen[key] = true
		s.Lines = append(s.Lines, m)
	}
	return s
}

// bulkRequests draws n table-annotation requests of `cells` noised cells
// each, about a tenth of them repeats of an earlier cell of the same request
// (a table column repeats its values).
func bulkRequests(g *kg.Graph, seed uint64, n, cells int) *stream {
	rng := mathx.NewRNG(seed)
	noise := &tabular.Injector{}
	s := &stream{Name: "bulk", Lines: make([]string, 0, n)}
	row := make([]string, cells)
	for len(s.Lines) < n {
		for c := 0; c < cells; c++ {
			if c > 0 && rng.Bool(0.1) {
				row[c] = row[rng.Intn(c)]
				continue
			}
			id := rng.Intn(len(g.Entities))
			m := noise.Corrupt(g.Entities[id].Label, rng)
			if strings.TrimSpace(m) == "" {
				m = g.Entities[id].Label
			}
			row[c] = m
		}
		s.Lines = append(s.Lines, strings.Join(row, cellSep))
	}
	return s
}

// zipfLookups draws n clean labels with Zipf(1.1) popularity. Which entities
// are the popular ones is fixed for the graph (entity ids run type by type,
// so rank is a permutation of them); the seed decides the draws. Seeds then
// differ in their requests but not in the hot set's label lengths or hit rate.
func zipfLookups(g *kg.Graph, seed uint64, n int) *stream {
	rank := mathx.NewRNG(prepSeed).Perm(len(g.Entities))
	rng := mathx.NewRNG(seed)
	s := &stream{Name: "lookups", Lines: make([]string, n)}
	for i := range s.Lines {
		s.Lines[i] = g.Entities[rank[rng.Zipf(len(g.Entities), 1.1)]].Label
	}
	return s
}

// ingestBatches draws n POST /ingest bodies of perBatch new alias mentions
// each: a noised label with a two-letter token appended, so every mention is
// new to the index, attached to the entity it was derived from.
func ingestBatches(g *kg.Graph, seed uint64, n, perBatch int) (*stream, []core.IngestItem) {
	rng := mathx.NewRNG(seed)
	noise := &tabular.Injector{}
	s := &stream{Name: "ingests", Lines: make([]string, 0, n)}
	var all []core.IngestItem
	for b := 0; b < n; b++ {
		items := make([]core.IngestItem, perBatch)
		for i := range items {
			id := rng.Intn(len(g.Entities))
			m := noise.Corrupt(g.Entities[id].Label, rng) + " " + string(rune('a'+rng.Intn(26))) + string(rune('a'+rng.Intn(26)))
			items[i] = core.IngestItem{Mention: m, ID: kg.EntityID(id)}
		}
		body, _ := json.Marshal(items) // a slice of plain structs cannot fail to encode
		s.Lines = append(s.Lines, string(body))
		all = append(all, items...)
	}
	return s, all
}
