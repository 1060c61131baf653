package cluster

import (
	"encoding/json"
	"slices"
	"testing"
)

// sameMap compares maps by content: a nil and an empty Bounds are the same
// map (Clone and encoding/json's omitempty both turn one into the other).
func sameMap(a, b Map) bool {
	return a.Epoch == b.Epoch && a.TotalRows == b.TotalRows && slices.Equal(a.Bounds, b.Bounds) &&
		slices.EqualFunc(a.Replicas, b.Replicas, slices.Equal)
}

// FuzzMapJSON: a cluster map read from any bytes never panics Validate, and
// one it accepts is still accepted and equal after Clone and after a JSON
// round trip, which is how a map travels from the control plane to a
// router.
func FuzzMapJSON(f *testing.F) {
	f.Add([]byte(`{"epoch":1,"replicas":[["http://a"],["http://b"]]}`))
	f.Add([]byte(`{"epoch":3,"totalRows":10,"bounds":[0,4,10],"replicas":[["http://a","http://c"],["http://b"]]}`))
	f.Add([]byte(`{"epoch":2,"bounds":[],"replicas":[["http://a"]]}`))
	f.Add([]byte(`{"epoch":0,"replicas":[[]]}`))
	f.Add([]byte(`{"epoch":1,"replicas":[["x","x"]]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var m Map
		if json.Unmarshal(data, &m) != nil || m.Validate() != nil {
			return
		}
		c := m.Clone()
		if err := c.Validate(); err != nil || !sameMap(m, c) {
			t.Fatalf("Clone of %+v = %+v, %v", m, c, err)
		}
		buf, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		var back Map
		if err := json.Unmarshal(buf, &back); err != nil {
			t.Fatal(err)
		}
		if err := back.Validate(); err != nil || !sameMap(m, back) {
			t.Fatalf("JSON round trip of %+v = %+v, %v", m, back, err)
		}
	})
}
