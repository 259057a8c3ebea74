package core

import "tilesim/internal/obs"

// RegisterMetrics installs the message manager's counters in a
// registry under the "mgr." prefix (DESIGN.md §10 naming): the
// compression hit/miss pipeline and the plane-steering decision
// counts. The failover counter registers only under fault injection,
// keeping fault-free metric output byte-identical to earlier versions.
func (m *Manager) RegisterMetrics(r *obs.Registry) {
	r.Counter("mgr.compressible", m.Compressible.Value)
	r.Counter("mgr.compressed", m.Compressed.Value)
	r.Counter("mgr.vl_messages", m.VLMessages.Value)
	r.Counter("mgr.b_messages", m.BMessages.Value)
	r.Counter("mgr.pw_messages", m.PWMessages.Value)
	r.Counter("mgr.local_messages", m.LocalMsgs.Value)
	r.Counter("mgr.saved_bytes", m.SavedBytes.Value)
	if m.net.FaultsEnabled() {
		r.Counter("mgr.failover_msgs", m.FailoverMsgs.Value)
	}
	r.Ratio("mgr.coverage", m.Compressed.Value, m.Compressible.Value)
	remote := func() uint64 { return m.VLMessages.Value() + m.BMessages.Value() + m.PWMessages.Value() }
	r.Ratio("mgr.vl_fraction", m.VLMessages.Value, remote)
	r.Ratio("mgr.pw_fraction", m.PWMessages.Value, remote)
}
