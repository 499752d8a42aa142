//! The speculation board: what rip-up has decided so far, and the
//! legalizations done against it.
//!
//! Rip-up posts each net's current geometry and a [`Hint`] after every
//! iteration; helper threads [`take`](Board::take) nets off the board,
//! legalize them without holding its lock, and [`finish`](Board::finish)
//! them. A geometry change voids the net's speculation: its finished
//! result is dropped and the net goes back on the board, and a
//! legalization still in flight on the old geometry is discarded when it
//! finishes. A net's legalization is a pure function of the net, its
//! geometry and the planner's settings, so a result that survives to the
//! end is the one a legalization after rip-up would produce.
//!
//! The board is plain data; the flow run keeps it behind an
//! [`OrderedMutex`](clockroute_core::OrderedMutex) of rank
//! [`LockRank::FlowBoard`](clockroute_core::LockRank::FlowBoard).

/// What rip-up knows about a net's geometry. Helpers take the lowest
/// first: a frozen net's geometry is final, a net clear of overflow is
/// likely to keep its geometry, an offender is likely to move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Hint {
    /// Final: frozen by rip-up, or without a geometry to move.
    Frozen,
    /// Crosses no overloaded edge; moves only if another net's reroute
    /// overloads one of its edges.
    Clear,
    /// Crosses an overloaded edge: rip-up may move it next.
    Offending,
}

/// Where a net's legalization stands.
#[derive(Debug)]
enum State<R> {
    /// Not taken since its geometry was last posted.
    Idle,
    /// Taken; its result is kept if the geometry has not changed since.
    Running,
    /// Finished on the current geometry.
    Done(R),
}

#[derive(Debug)]
struct Slot<G, R> {
    geometry: G,
    /// Bumped on every geometry change; a ticket carries the version it
    /// was taken at.
    version: u32,
    hint: Hint,
    state: State<R>,
    /// Taken before rip-up settled: a result kept from it is a reused
    /// speculation.
    early: bool,
}

/// A net taken off the board: the net's index and the geometry to
/// legalize it on.
#[derive(Debug)]
pub(crate) struct Ticket<G> {
    pub(crate) net: usize,
    pub(crate) geometry: G,
    version: u32,
}

/// The nets of one flow run, indexed as the run's nets are.
#[derive(Debug)]
pub(crate) struct Board<G, R> {
    slots: Vec<Slot<G, R>>,
    /// Rip-up is over: no geometry changes any more.
    settled: bool,
    /// No more taking: the run ended, or its caller is unwinding.
    closed: bool,
    /// Helpers blocked waiting for a net to take.
    pub(crate) waiting: usize,
    /// Legalizations voided by a geometry change, finished or in flight.
    voided: usize,
}

impl<G: Clone, R> Board<G, R> {
    /// A board with no nets posted yet.
    pub(crate) fn new() -> Board<G, R> {
        Board {
            slots: Vec::new(),
            settled: false,
            closed: false,
            waiting: 0,
            voided: 0,
        }
    }

    /// Posts every net's first geometry and hint, in net order.
    pub(crate) fn post(&mut self, nets: impl IntoIterator<Item = (G, Hint)>) {
        self.slots = nets
            .into_iter()
            .map(|(geometry, hint)| Slot {
                geometry,
                version: 0,
                hint,
                state: State::Idle,
                early: false,
            })
            .collect();
    }

    /// Rip-up moved `net` to `geometry`: whatever was legalized, or is
    /// being legalized, on the old one is void, and the net is idle
    /// again.
    pub(crate) fn update(&mut self, net: usize, geometry: G) {
        let slot = &mut self.slots[net];
        if !matches!(slot.state, State::Idle) {
            self.voided += 1;
        }
        slot.geometry = geometry;
        slot.version += 1;
        slot.state = State::Idle;
        slot.early = false;
    }

    /// Sets `net`'s hint.
    pub(crate) fn hint(&mut self, net: usize, hint: Hint) {
        self.slots[net].hint = hint;
    }

    /// Rip-up is over: every posted geometry is final.
    pub(crate) fn settle(&mut self) {
        self.settled = true;
    }

    /// No net is taken from now on; [`take`](Board::take) answers
    /// `None` and [`is_over`](Board::is_over) `true`.
    pub(crate) fn close(&mut self) {
        self.closed = true;
    }

    /// Nothing is left to take, now or later: a helper can stop.
    pub(crate) fn is_over(&self) -> bool {
        self.closed || (self.settled && !self.has_idle())
    }

    /// Some net is waiting to be taken.
    pub(crate) fn has_idle(&self) -> bool {
        self.slots.iter().any(|s| matches!(s.state, State::Idle))
    }

    /// Takes the idle net with the lowest hint, ties to the lowest index.
    pub(crate) fn take(&mut self) -> Option<Ticket<G>> {
        if self.closed {
            return None;
        }
        let mut best: Option<(usize, Hint)> = None;
        for (i, s) in self.slots.iter().enumerate() {
            if matches!(s.state, State::Idle)
                && best.is_none_or(|(_, hint)| (s.hint as u8) < (hint as u8))
            {
                best = Some((i, s.hint));
            }
        }
        let (net, _) = best?;
        let slot = &mut self.slots[net];
        slot.state = State::Running;
        slot.early = !self.settled;
        Some(Ticket {
            net,
            geometry: slot.geometry.clone(),
            version: slot.version,
        })
    }

    /// Hands in the legalization of `ticket`. It is kept when the net
    /// still has the geometry it was taken with and returns `true`;
    /// otherwise it is dropped, with whatever it recorded.
    pub(crate) fn finish(&mut self, ticket: Ticket<G>, result: R) -> bool {
        let slot = &mut self.slots[ticket.net];
        if slot.version != ticket.version || !matches!(slot.state, State::Running) {
            return false;
        }
        slot.state = State::Done(result);
        true
    }

    /// Every net's kept result in net order (`None` for a net that was
    /// never finished), with how many of them were taken before rip-up
    /// settled and how many legalizations a geometry change voided.
    pub(crate) fn into_results(self) -> (Vec<Option<R>>, usize, usize) {
        let mut reused = 0;
        let results = self
            .slots
            .into_iter()
            .map(|s| match s.state {
                State::Done(r) => {
                    reused += usize::from(s.early);
                    Some(r)
                }
                State::Idle | State::Running => None,
            })
            .collect();
        (results, reused, self.voided)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn board(geometries: &[&'static str]) -> Board<&'static str, String> {
        let mut b = Board::new();
        b.post(geometries.iter().map(|&g| (g, Hint::Clear)));
        b
    }

    /// Legalizes `ticket` "on its geometry": the result names it.
    fn legalize(b: &mut Board<&'static str, String>, ticket: Ticket<&'static str>) -> bool {
        let result = format!("legal {}", ticket.geometry);
        b.finish(ticket, result)
    }

    #[test]
    fn helpers_take_the_lowest_hint_then_the_lowest_index() {
        let mut b = board(&["a", "b", "c", "d"]);
        b.hint(0, Hint::Offending);
        b.hint(2, Hint::Frozen);
        b.hint(3, Hint::Frozen);
        let order: Vec<usize> = std::iter::from_fn(|| b.take().map(|t| t.net)).collect();
        assert_eq!(order, [2, 3, 1, 0]);
        assert!(!b.has_idle());
        assert!(!b.is_over(), "rip-up may still move a net");
        b.settle();
        assert!(b.is_over());
    }

    #[test]
    fn a_stale_speculation_is_never_shipped() {
        let mut b = board(&["a0", "b0"]);
        let t = b.take().unwrap();
        assert_eq!((t.net, t.geometry), (0, "a0"));
        assert!(legalize(&mut b, t));
        // Rip-up moves net 0 after its speculation finished: the result
        // is void and the net is idle again, on the new geometry.
        b.update(0, "a1");
        let t = b.take().unwrap();
        assert_eq!((t.net, t.geometry), (0, "a1"));
        assert!(legalize(&mut b, t));
        b.settle();
        let t = b.take().unwrap();
        assert!(legalize(&mut b, t));
        let (results, reused, voided) = b.into_results();
        assert_eq!(
            results,
            [Some("legal a1".to_owned()), Some("legal b0".to_owned())]
        );
        assert_eq!(reused, 1, "only net 0's second speculation was early");
        assert_eq!(voided, 1);
    }

    #[test]
    fn an_in_flight_result_for_a_requeued_net_is_discarded() {
        let mut b = board(&["a0"]);
        let stale = b.take().unwrap();
        // Rip-up re-queues the net while its legalization is in flight.
        b.update(0, "a1");
        let fresh = b.take().unwrap();
        assert_eq!(fresh.geometry, "a1");
        // The stale result lands first, then the fresh one: only the
        // fresh one is kept.
        assert!(!legalize(&mut b, stale));
        assert!(legalize(&mut b, fresh));
        b.settle();
        assert_eq!(b.into_results().0, [Some("legal a1".to_owned())]);

        // Landing after the fresh one does not overwrite it either.
        let mut b = board(&["a0"]);
        let stale = b.take().unwrap();
        b.update(0, "a1");
        let fresh = b.take().unwrap();
        assert!(legalize(&mut b, fresh));
        assert!(!legalize(&mut b, stale));
        // Nor does one that lands while the net is idle again.
        b.update(0, "a2");
        let t = b.take().unwrap();
        b.update(0, "a3");
        assert!(!legalize(&mut b, t));
        b.settle();
        let t = b.take().unwrap();
        assert!(legalize(&mut b, t));
        assert_eq!(b.into_results(), (vec![Some("legal a3".to_owned())], 0, 3));
    }

    #[test]
    fn a_closed_board_hands_out_nothing() {
        let mut b = board(&["a"]);
        b.close();
        assert!(b.take().is_none());
        assert!(b.is_over());
        assert_eq!(b.into_results(), (vec![None], 0, 0));
    }
}
