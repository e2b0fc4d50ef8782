use crate::RoadNetError;

/// One directed road segment (the paper's "arc").
///
/// Capacity is in vehicles per measurement period, free-flow time in
/// arbitrary consistent units (the Sioux Falls data uses minutes·0.01 in
/// some distributions; only ratios matter for route choice).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Link {
    /// Tail node index (0-based).
    pub from: usize,
    /// Head node index (0-based).
    pub to: usize,
    /// Practical capacity (vehicles/period), used by the BPR function.
    pub capacity: f64,
    /// Travel time at zero flow.
    pub free_flow_time: f64,
}

impl Link {
    /// Convenience constructor.
    #[must_use]
    pub fn new(from: usize, to: usize, capacity: f64, free_flow_time: f64) -> Self {
        Self {
            from,
            to,
            capacity,
            free_flow_time,
        }
    }
}

/// A directed road network with adjacency indexing.
///
/// Node indices are 0-based and dense (`0..node_count`). Every node is a
/// potential RSU site.
///
/// # Example
///
/// ```
/// use vcps_roadnet::{Link, RoadNetwork};
///
/// # fn main() -> Result<(), vcps_roadnet::RoadNetError> {
/// let net = RoadNetwork::new(3, vec![
///     Link::new(0, 1, 100.0, 2.0),
///     Link::new(1, 2, 100.0, 3.0),
///     Link::new(0, 2, 50.0, 10.0),
/// ])?;
/// assert_eq!(net.node_count(), 3);
/// assert_eq!(net.outgoing(0).count(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RoadNetwork {
    node_count: usize,
    links: Vec<Link>,
    /// Outgoing link indices per node.
    adjacency: Vec<Vec<usize>>,
}

impl RoadNetwork {
    /// Builds a network from links over `node_count` nodes.
    ///
    /// # Errors
    ///
    /// * [`RoadNetError::NodeOutOfBounds`] if a link endpoint is
    ///   `>= node_count`;
    /// * [`RoadNetError::InvalidLink`] for non-positive capacity or
    ///   free-flow time, or a self-loop.
    pub fn new(node_count: usize, links: Vec<Link>) -> Result<Self, RoadNetError> {
        for (index, link) in links.iter().enumerate() {
            for node in [link.from, link.to] {
                if node >= node_count {
                    return Err(RoadNetError::NodeOutOfBounds { node, node_count });
                }
            }
            if link.from == link.to {
                return Err(RoadNetError::InvalidLink {
                    index,
                    reason: "self-loop",
                });
            }
            if link.capacity.is_nan() || link.capacity <= 0.0 {
                return Err(RoadNetError::InvalidLink {
                    index,
                    reason: "capacity must be positive",
                });
            }
            if link.free_flow_time.is_nan() || link.free_flow_time <= 0.0 {
                return Err(RoadNetError::InvalidLink {
                    index,
                    reason: "free-flow time must be positive",
                });
            }
        }
        let mut adjacency = vec![Vec::new(); node_count];
        for (i, link) in links.iter().enumerate() {
            adjacency[link.from].push(i);
        }
        Ok(Self {
            node_count,
            links,
            adjacency,
        })
    }

    /// Number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of directed links.
    #[must_use]
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// All links, in construction order (link index = position).
    #[must_use]
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// One link by index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= link_count()`.
    #[must_use]
    pub fn link(&self, index: usize) -> &Link {
        &self.links[index]
    }

    /// Iterator over the outgoing link indices of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node >= node_count()`.
    pub fn outgoing(&self, node: usize) -> impl Iterator<Item = usize> + '_ {
        self.adjacency[node].iter().copied()
    }

    /// The free-flow travel time of every link, indexable by link index —
    /// the cost vector for uncongested routing.
    #[must_use]
    pub fn free_flow_times(&self) -> Vec<f64> {
        self.links.iter().map(|l| l.free_flow_time).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> RoadNetwork {
        RoadNetwork::new(
            3,
            vec![
                Link::new(0, 1, 10.0, 1.0),
                Link::new(1, 2, 10.0, 1.0),
                Link::new(2, 0, 10.0, 1.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn construction_and_counts() {
        let net = triangle();
        assert_eq!(net.node_count(), 3);
        assert_eq!(net.link_count(), 3);
        assert_eq!(net.link(1).to, 2);
    }

    #[test]
    fn adjacency_lists_outgoing_links() {
        let net = triangle();
        assert_eq!(net.outgoing(0).collect::<Vec<_>>(), vec![0]);
        assert_eq!(net.outgoing(2).collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn rejects_out_of_bounds_nodes() {
        let err = RoadNetwork::new(2, vec![Link::new(0, 2, 1.0, 1.0)]).unwrap_err();
        assert!(matches!(err, RoadNetError::NodeOutOfBounds { node: 2, .. }));
    }

    #[test]
    fn rejects_self_loops_and_bad_attributes() {
        assert!(RoadNetwork::new(2, vec![Link::new(1, 1, 1.0, 1.0)]).is_err());
        assert!(RoadNetwork::new(2, vec![Link::new(0, 1, 0.0, 1.0)]).is_err());
        assert!(RoadNetwork::new(2, vec![Link::new(0, 1, 1.0, -2.0)]).is_err());
        assert!(RoadNetwork::new(2, vec![Link::new(0, 1, 1.0, f64::NAN)]).is_err());
    }

    #[test]
    fn free_flow_times_match_links() {
        let net = triangle();
        assert_eq!(net.free_flow_times(), vec![1.0, 1.0, 1.0]);
    }

    #[test]
    fn empty_network_is_allowed() {
        let net = RoadNetwork::new(0, vec![]).unwrap();
        assert_eq!(net.node_count(), 0);
        assert_eq!(net.link_count(), 0);
    }
}
