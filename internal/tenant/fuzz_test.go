package tenant

import (
	"context"
	"encoding/json"
	"testing"
)

// FuzzTenantConfig: whatever tenants file Validate accepts must serve. An
// idle admission gate of every tenant admits one request, and the tenant's
// effective maxK and maxBatch leave room for one query at the default k —
// a limit that refuses everything is a config error, not a tenant.
func FuzzTenantConfig(f *testing.F) {
	f.Add([]byte(`{"tenants":[{"name":"a","graph":"g","model":"m"}]}`))
	f.Add([]byte(`{"tenants":[{"name":"a","graph":"g","model":"m","limits":{"maxConcurrent":-1}}]}`))
	f.Add([]byte(`{"tenants":[{"name":"a","graph":"g","model":"m","limits":{"maxK":-1,"maxBatch":-1}}]}`))
	f.Add([]byte(`{"tenants":[{"name":"a","graph":"g","model":"m","limits":{"ratePerSec":0.5,"burst":0.25}}]}`))
	f.Add([]byte(`{"tenants":[{"name":"a","graph":"g","model":"m","limits":{"queueDepth":-1,"defaultDeadlineMs":-5,"maxDeadlineMs":-1}},` +
		`{"name":"b","graph":"g","model":"m","limits":{"ratePerSec":500,"burst":2,"maxConcurrent":1,"maxK":5,"maxBatch":3}}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var c Config
		if json.Unmarshal(data, &c) != nil || c.Validate() != nil {
			return
		}
		for _, tc := range c.Tenants {
			a := NewAdmission(tc.Name, tc.Limits)
			if err := a.Acquire(context.Background()); err != nil {
				t.Fatalf("tenant %q with limits %+v: an idle gate refused a request: %v", tc.Name, tc.Limits, err)
			}
			a.Release()
			if l := a.Limits(); l.MaxK < 1 || l.MaxBatch < 1 {
				t.Fatalf("tenant %q: effective maxK %d, maxBatch %d refuse every request", tc.Name, l.MaxK, l.MaxBatch)
			}
		}
	})
}
