package sqlengine

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"qfusor/internal/data"
	"qfusor/internal/ffi"
)

// Catalog holds tables and registered UDFs. It is safe for concurrent
// readers; DDL takes the write lock.
//
// The catalog also carries a monotonically increasing epoch: any change
// that can alter a query's correct answer or its optimization decisions
// — DDL, DML, UDF (re-)registration or removal — bumps it. Plan-level
// caches (core.PlanCache) key their entries on the epoch observed at
// plan time, so a stale cached decision can never be served after the
// catalog moved underneath it.
type Catalog struct {
	mu     sync.RWMutex
	tables map[string]*data.Table
	udfs   map[string]*ffi.UDF
	// dml serializes DML statements: INSERT and UPDATE write a table's
	// column storage in place, so two writers must not overlap.
	dml sync.Mutex

	// epoch counts catalog generations (see Epoch/BumpEpoch).
	epoch atomic.Int64
	// udfEpoch counts only UDF definition changes (see UDFEpoch): the
	// wrapper compile cache bakes UDF bodies into generated code, so it
	// must flush on redefinition but not on data-only changes.
	udfEpoch atomic.Int64
}

// NewCatalog creates an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{
		tables: make(map[string]*data.Table),
		udfs:   make(map[string]*ffi.UDF),
	}
}

// Epoch returns the current catalog generation. Two reads returning the
// same value bracket a window with no table/UDF changes, which is the
// soundness condition plan-decision caching relies on.
func (c *Catalog) Epoch() int64 { return c.epoch.Load() }

// BumpEpoch advances the catalog generation, invalidating any plan
// decisions keyed on earlier epochs. Called by every table/UDF mutation
// here plus the in-place DML paths (INSERT/UPDATE append into existing
// column storage without re-registering the table).
func (c *Catalog) BumpEpoch() int64 { return c.epoch.Add(1) }

// UDFEpoch returns the generation counter of UDF definitions only. It
// moves when a non-fused UDF is (re-)registered — exactly
// the events that make previously compiled fused wrappers (which inline
// the source UDFs' bodies) stale.
func (c *Catalog) UDFEpoch() int64 { return c.udfEpoch.Load() }

// PutTable registers (or replaces) a table.
func (c *Catalog) PutTable(t *data.Table) {
	c.mu.Lock()
	c.tables[strings.ToLower(t.Name)] = t
	c.mu.Unlock()
	c.epoch.Add(1)
}

// Table looks up a table by name.
func (c *Catalog) Table(name string) (*data.Table, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[strings.ToLower(name)]
	return t, ok
}

// DropTable removes a table.
func (c *Catalog) DropTable(name string) {
	c.mu.Lock()
	delete(c.tables, strings.ToLower(name))
	c.mu.Unlock()
	c.epoch.Add(1)
}

// Tables returns the table names.
func (c *Catalog) Tables() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.tables))
	for n := range c.tables {
		out = append(out, n)
	}
	return out
}

// PutUDF registers a UDF (the CREATE FUNCTION step of the registration
// mechanism). Registering or re-registering a user UDF bumps the
// catalog epoch — cached plans may embed the old definition. Fused
// wrappers arrive here only through rewrite path 1 (core's RewriteSQL),
// whose re-submitted SQL calls them by name; they are exempt: they are
// *products* of planning, and bumping for them would invalidate the very
// plan entry being rendered (the cache could then never hit).
func (c *Catalog) PutUDF(u *ffi.UDF) {
	c.mu.Lock()
	c.udfs[strings.ToLower(u.Name)] = u
	c.mu.Unlock()
	if !u.Fused {
		c.epoch.Add(1)
		c.udfEpoch.Add(1)
	}
}

// UDF looks up a UDF by name.
func (c *Catalog) UDF(name string) (*ffi.UDF, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	u, ok := c.udfs[strings.ToLower(name)]
	return u, ok
}

// UDFs returns all registered UDFs.
func (c *Catalog) UDFs() []*ffi.UDF {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*ffi.UDF, 0, len(c.udfs))
	for _, u := range c.udfs {
		out = append(out, u)
	}
	return out
}

// nativeAggregates are the engine's built-in aggregate functions.
var nativeAggregates = map[string]bool{
	"count": true, "sum": true, "avg": true, "min": true, "max": true,
	"median": true,
}

// IsNativeAggregate reports whether name is a built-in aggregate.
func IsNativeAggregate(name string) bool {
	return nativeAggregates[strings.ToLower(name)]
}

// nativeScalars are built-in scalar functions evaluated natively by the
// engine (no UDF boundary crossing).
var nativeScalars = map[string]bool{
	"length": true, "abs": true, "coalesce": true, "substr": true,
	"instr": true, "nullif": true, "ifnull": true, "typeof": true,
	"trim": true, "sqlupper": true, "sqllower": true, "round": true,
}

// IsNativeScalar reports whether name is a built-in scalar function.
func IsNativeScalar(name string) bool {
	return nativeScalars[strings.ToLower(name)]
}

// ErrNoSuchTable is returned for unknown table references.
func errNoSuchTable(name string) error {
	return fmt.Errorf("sql: no such table: %s", name)
}
