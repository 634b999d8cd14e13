package core

// Coalesced reconfiguration: one Π-set derivation per link per cause,
// instead of one per channel operation.
//
// reconfigureLinks re-derives every touched link's Π structure from scratch
// — O(entries²) pairwise S evaluations per link. In a mass failure the same
// links are touched once per expired channel and once per promotion, so the
// storm pays that quadratic rebuild hundreds of times over the same
// neighborhood. Yet the rebuild only produces *different* values when some
// pair's inputs changed, and the incremental bookkeeping already maintains
// everything else exactly:
//
//   - entry membership: scanLink decides new pairs with the same muxDecide
//     against current primaries the rebuild uses, wireLink applies the
//     decision, and removeBackupFromLink/promoteBackup unwire departing
//     channels from every Π set and requirement they appear in;
//   - requirements: req is adjusted by exactly the bandwidth of each added
//     or removed Π member, and the maxReq cache rescans when a removal may
//     have dethroned the cached maximum (noteReqShrink).
//
// The one input the incremental path cannot see locally is a *primary
// change*: S(Bi,Bj) is a function of the two connections' primary paths
// (§3.2), so when a connection's primary changes — promotion, loss, or
// demotion — every link hosting one of its surviving backups holds pair
// decisions computed from a stale path. primaryChanged is the single choke
// point for all three causes, and it marks exactly those links (piStale).
//
// With that flag, reconfiguration splits per touched link:
//
//	stale  -> full recomputeLinkMux rebuild (clears the flag);
//	fresh  -> no rebuild: the incrementally maintained requirements stand,
//	          O(entries) instead of O(entries²).
//
// Either way settle then sizes the pool from the requirements.
//
// The split is exact, not approximate: recomputeLinkMux is a pure function
// of the entries and their connections' primaries, and a fresh link's inputs are unchanged since its pair decisions were last
// derived, so the rebuild would reproduce the stored Π sets and
// requirements verbatim. TestCoalescedReconfigEquivalence drives both
// engines through randomized protocol histories and asserts bit-identical
// state; the dispatch-level equivalence tests (bcpd, chaos) cover the same
// property end-to-end, since the batched engine runs coalesced and the
// per-message baseline eager.
//
// SetCoalescedReconfig gates the split. Default off: the eager rebuild
// stays the reference semantics, and internal/bcpd enables coalescing
// together with dispatch rounds (and leaves it off for the per-message
// baseline, which reproduces the pre-batching engine).

// SetCoalescedReconfig switches reconfiguration between the eager
// always-rebuild reference path (off, the default) and the coalesced
// stale-tracking path (on). Safe to toggle at any time: staleness is
// tracked in both modes, so turning coalescing on mid-life never reuses a
// pair decision that a primary change invalidated.
func (m *Manager) SetCoalescedReconfig(on bool) {
	defer m.beginWrite()()
	m.coalesceReconfig = on
}

// markPiStale records that conn's primary path changed: every link hosting
// one of its surviving backups now stores pair decisions derived from the
// old path, and must take the full rebuild on its next reconfiguration.
// Called from primaryChanged, after the caller has settled conn.Backups.
func (m *Manager) markPiStale(conn *DConnection) {
	for _, b := range conn.Backups {
		for _, l := range b.Path.Links() {
			m.piStale[l] = true
		}
	}
}
