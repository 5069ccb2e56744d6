//! The request table both surfaces resolve pipeline hops against.
//!
//! A hop on the wire is a 24-byte [`Hop`]: the admitted incarnation's epoch,
//! the request's slot, tokens, stage index and phase.  Everything else about
//! the work — request id, node, layers, model, prefix — is read from the
//! slot's [`Lane`] when the hop lands ([`RequestTable::land`]) and when its
//! stage finishes ([`RequestTable::onward`]), so a hop hashes nothing and
//! clones nothing.
//!
//! A lane is opened at dispatch and closed exactly where the control plane
//! drops the flight: at the request's last token and for every pipeline a
//! fail-over strands.  Slots are never reused within a table, so stale work
//! — a prior incarnation's hop still on a link when its node failed — meets
//! a closed lane or a newer epoch and is dropped, without a lookup.  The
//! table holds one slot per distinct request id it was given and never
//! shrinks: it grows by one entry per distinct id over a run or a session.

use crate::control::Dispatch;
use crate::engine::{IdMap, WorkItem};
use crate::exec_model::Phase;
use crate::scheduling::prefix::PrefixWork;
use crate::scheduling::RequestPipeline;
use helix_cluster::{ModelId, NodeId};
use helix_workload::{Request, RequestId};
use std::sync::Arc;

/// One pipeline hop on the wire.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hop {
    /// Which admission of the request this work belongs to (0 for the
    /// first).  A node failure aborts and re-admits the pipelines it
    /// strands; hops of the aborted incarnation still in flight carry the
    /// old epoch and are dropped instead of corrupting the new pipeline.
    pub epoch: u64,
    /// The request's slot in the [`RequestTable`].
    pub slot: u32,
    /// Number of tokens to run through the layers (prompt length for the
    /// prompt phase, 1 for decode).
    pub tokens: u32,
    /// Index of the destination stage within the request's pipeline.
    pub stage: u16,
    /// Prompt or decode.
    pub phase: Phase,
}

impl Hop {
    /// The decode iteration of the request in `slot` under `epoch`, on its
    /// way to the pipeline's first stage.
    #[inline]
    pub fn decode(slot: u32, epoch: u64) -> Hop {
        Hop {
            epoch,
            slot,
            tokens: 1,
            stage: 0,
            phase: Phase::Decode,
        }
    }
}

/// What the hops and tokens of one admitted incarnation resolve against.
#[derive(Debug, Clone)]
pub struct Lane {
    /// The incarnation's epoch.
    pub epoch: u64,
    /// The pipeline it runs on.
    pub pipeline: Arc<RequestPipeline>,
    /// The shared-prefix work its prompt carries.
    pub prefix: Option<PrefixWork>,
}

/// The requests by slot, with the live incarnation of each; see the
/// [module documentation](self).
#[derive(Debug, Clone, Default)]
pub struct RequestTable {
    specs: Vec<Request>,
    /// Id → slot: consulted per arrival, admission and finish, never per
    /// hop.
    slots: IdMap<RequestId, u32>,
    lanes: Vec<Option<Lane>>,
}

impl RequestTable {
    /// An empty table with room for `capacity` requests.
    pub fn with_capacity(capacity: usize) -> Self {
        RequestTable {
            specs: Vec::with_capacity(capacity),
            slots: IdMap::with_capacity_and_hasher(capacity, Default::default()),
            lanes: Vec::with_capacity(capacity),
        }
    }

    /// The slot of `request`: a new one for an id the table has not seen,
    /// else the id's slot, whose spec `request` overwrites.
    pub fn insert(&mut self, request: Request) -> u32 {
        let next = self.specs.len() as u32;
        let slot = *self.slots.entry(request.id).or_insert(next);
        if slot == next {
            self.specs.push(request);
            self.lanes.push(None);
        } else {
            self.specs[slot as usize] = request;
        }
        slot
    }

    /// The slot of request `id`, if the table holds it.
    pub fn slot(&self, id: RequestId) -> Option<u32> {
        self.slots.get(&id).copied()
    }

    /// The request in `slot`.
    pub fn spec(&self, slot: u32) -> Option<&Request> {
        self.specs.get(slot as usize)
    }

    /// Opens `slot`'s lane for the incarnation `dispatch` admitted, and
    /// returns its prefill hop to the pipeline's first stage.
    pub fn open(&mut self, slot: u32, dispatch: &Dispatch) -> Hop {
        if let Some(entry) = self.lanes.get_mut(slot as usize) {
            let pipeline = Arc::clone(&dispatch.pipeline);
            let (epoch, prefix) = (dispatch.epoch, dispatch.prefix);
            *entry = Some(Lane {
                epoch,
                pipeline,
                prefix,
            });
        }
        Hop {
            // A prefill never exceeds its request's tokens, which a pool
            // of 2³² tokens would not hold.
            tokens: u32::try_from(dispatch.prefill_tokens).unwrap_or(u32::MAX),
            phase: Phase::Prompt,
            ..Hop::decode(slot, dispatch.epoch)
        }
    }

    /// Closes the lane of request `id`: the control plane dropped its
    /// flight.
    pub fn close(&mut self, id: RequestId) {
        if let Some(entry) = self
            .slot(id)
            .and_then(|slot| self.lanes.get_mut(slot as usize))
        {
            *entry = None;
        }
    }

    /// The request and lane work of (`slot`, `epoch`) belongs to, unless it
    /// is stale.
    #[inline]
    pub fn lane(&self, slot: u32, epoch: u64) -> Option<(&Request, &Lane)> {
        let lane = self.lanes.get(slot as usize)?.as_ref()?;
        (lane.epoch == epoch).then_some((self.specs.get(slot as usize)?, lane))
    }

    /// Where `hop` lands — its stage's node and model — and the work item it
    /// queues there, unless it is stale.
    #[inline]
    pub fn land(&self, hop: Hop) -> Option<(NodeId, ModelId, WorkItem)> {
        let (spec, lane) = self.lane(hop.slot, hop.epoch)?;
        let stage = *lane.pipeline.stages.get(usize::from(hop.stage))?;
        let item = WorkItem {
            request: spec.id,
            hop,
            layers: stage.layers,
            prefix: lane.prefix.filter(|_| hop.phase == Phase::Prompt),
        };
        Some((stage.node, lane.pipeline.model, item))
    }

    /// Where `item` goes once its stage ran: its lane and the node of the
    /// next stage, or `None` after the last stage (the token returns to the
    /// coordinator).  `None` altogether for stale work: an aborted
    /// incarnation's, or what an earlier run left on an engine (the slot
    /// names another request).
    #[inline]
    pub fn onward(&self, item: &WorkItem) -> Option<(&Lane, Option<NodeId>)> {
        let (spec, lane) = self.lane(item.hop.slot, item.hop.epoch)?;
        if spec.id != item.request {
            return None;
        }
        let next = lane.pipeline.stages.get(usize::from(item.hop.stage) + 1);
        Some((lane, next.map(|stage| stage.node)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LayerRange, PipelineStage};

    /// Request 7 in slot 0, its lane on nodes 0 then 3.
    fn table() -> (RequestTable, Hop) {
        let stages = [(0, LayerRange::new(0, 4)), (3, LayerRange::new(4, 8))];
        let stages = stages.map(|(node, layers)| PipelineStage {
            node: NodeId(node),
            layers,
        });
        let pipeline = Arc::new(RequestPipeline {
            model: ModelId(1),
            stages: stages.to_vec(),
        });
        let mut requests = RequestTable::default();
        let slot = requests.insert(Request {
            id: 7,
            ..Request::default()
        });
        let dispatch = Dispatch {
            pipeline,
            epoch: 2,
            prefill_tokens: 128,
            prefix: None,
            resume_tokens: None,
            generated: 0,
        };
        let hop = requests.open(slot, &dispatch);
        assert_eq!((hop.stage, hop.phase), (0, Phase::Prompt));
        (requests, hop)
    }

    #[test]
    fn a_hop_walks_its_lanes_pipeline() {
        let (requests, hop) = table();
        let (node, model, item) = requests.land(hop).unwrap();
        assert_eq!((node, model, item.request), (NodeId(0), ModelId(1), 7));
        assert_eq!(item.layers, LayerRange::new(0, 4));
        let (_, next) = requests.onward(&item).unwrap();
        assert_eq!(next, Some(NodeId(3)));
        let (node, _, item) = requests.land(Hop { stage: 1, ..hop }).unwrap();
        assert_eq!(
            (node, item.hop.tokens, item.hop.phase),
            (NodeId(3), 128, Phase::Prompt)
        );
        let (_, next) = requests.onward(&item).unwrap();
        assert_eq!(next, None, "the last stage reports to the coordinator");
    }

    #[test]
    fn a_hop_past_the_pipelines_end_lands_nowhere() {
        let (requests, hop) = table();
        assert!(requests.land(Hop { stage: 2, ..hop }).is_none());
    }

    /// Work of an earlier epoch, or of a closed lane, is stale everywhere.
    #[test]
    fn stale_hops_and_items_resolve_to_nothing() {
        let (mut requests, hop) = table();
        let (_, _, item) = requests.land(hop).unwrap();
        assert!(requests.land(Hop { epoch: 1, ..hop }).is_none());
        let old = WorkItem {
            hop: Hop { epoch: 1, ..hop },
            ..item
        };
        assert!(requests.onward(&old).is_none());
        // A repeated id keeps its slot.
        let again = Request {
            id: 7,
            ..Request::default()
        };
        assert_eq!(requests.insert(again), hop.slot);
        requests.close(7);
        assert!(requests.land(hop).is_none() && requests.onward(&item).is_none());
    }
}
