package fault

import (
	"maps"
	"slices"
)

// The failpoint catalog: every site compiled into the tree. Enable
// rejects names outside it, so a misspelled site cannot silently test
// nothing. DESIGN §5g documents each. Storage has none: its failures
// are a SimDisk's.
const (
	// SiteTenantOpen guards a server opening a tenant knowledge base.
	SiteTenantOpen = "server/tenant.open"
	// SitePreparedBind guards binding placeholders into a prepared
	// statement template.
	SitePreparedBind = "server/prepared.bind"
	// SiteRequest guards serving one query request (after admission
	// control); latency outcomes here hold request slots open.
	SiteRequest = "server/request"
)

var catalog = map[string]bool{SiteTenantOpen: true, SitePreparedBind: true, SiteRequest: true}

// Catalog returns every known site name, sorted.
func Catalog() []string { return slices.Sorted(maps.Keys(catalog)) }
