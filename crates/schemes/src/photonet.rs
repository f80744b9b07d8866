use photodtn_contacts::NodeId;
use photodtn_coverage::{Photo, PhotoCollection};
use photodtn_sim::{Scheme, SimCtx};

/// PhotoNet-style diversity-driven picture delivery (the §IV-B baseline).
///
/// PhotoNet "prioritizes the transmission of photos by considering
/// location, time stamp, and color difference, with the goal of maximizing
/// the diversity of the photos". We reproduce that with a weighted
/// feature distance
///
/// ```text
/// d(f, g) = |l_f − l_g| / L  +  |t_f − t_g| / T  +  ‖hist_f − hist_g‖₁ / 2
/// ```
///
/// and greedy max–min-distance selection: the next photo transmitted (or
/// kept under storage pressure) is the one farthest from the receiver's
/// current collection. No coverage or orientation information is used —
/// which is exactly why it captures less of the target than our scheme in
/// the demo (160° vs 346° in Fig. 3).
#[derive(Clone, Debug)]
pub struct PhotoNet {
    /// Location normalizer `L`, meters.
    pub location_scale: f64,
    /// Time normalizer `T`, seconds.
    pub time_scale: f64,
}

impl PhotoNet {
    /// Creates the baseline with the default normalizers (1 km, 1 h).
    #[must_use]
    pub fn new() -> Self {
        PhotoNet {
            location_scale: 1000.0,
            time_scale: 3600.0,
        }
    }

    /// Feature distance between two photos.
    #[must_use]
    pub fn distance(&self, a: &Photo, b: &Photo) -> f64 {
        let loc = a.meta.location.distance(b.meta.location) / self.location_scale;
        let time = (a.taken_at - b.taken_at).abs() / self.time_scale;
        let color = a.histogram.distance(&b.histogram) / 2.0;
        loc + time + color
    }

    /// Min distance from `photo` to any photo in `collection`
    /// (`f64::INFINITY` for an empty collection — maximally novel).
    fn novelty(&self, photo: &Photo, collection: &PhotoCollection) -> f64 {
        collection
            .iter()
            .filter(|p| p.id != photo.id)
            .map(|p| self.distance(photo, p))
            .fold(f64::INFINITY, f64::min)
    }

    /// The most redundant stored photo (smallest novelty), if any.
    fn most_redundant(&self, collection: &PhotoCollection) -> Option<(f64, Photo)> {
        collection
            .iter()
            .map(|p| (self.novelty(p, collection), *p))
            .min_by(|(na, pa), (nb, pb)| na.total_cmp(nb).then(pa.id.cmp(&pb.id)))
    }

    /// Frees `need` bytes on `node` by evicting most-redundant photos, as
    /// long as they are more redundant than the incoming photo's novelty.
    fn make_room(&self, ctx: &mut SimCtx, node: NodeId, need: u64, incoming_novelty: f64) -> bool {
        let capacity = ctx.storage_bytes();
        loop {
            if ctx.collection(node).total_size() + need <= capacity {
                return true;
            }
            match self.most_redundant(ctx.collection(node)) {
                Some((novelty, victim)) if novelty < incoming_novelty => {
                    ctx.collection_mut(node).remove(victim.id);
                }
                _ => return false,
            }
        }
    }
}

impl Default for PhotoNet {
    fn default() -> Self {
        Self::new()
    }
}

impl Scheme for PhotoNet {
    fn name(&self) -> &'static str {
        "photonet"
    }

    fn on_photo_generated(&mut self, ctx: &mut SimCtx, node: NodeId, photo: Photo) {
        let novelty = self.novelty(&photo, ctx.collection(node));
        if !self.make_room(ctx, node, photo.size, novelty) {
            return;
        }
        ctx.collection_mut(node).insert(photo);
    }

    fn on_contact(&mut self, ctx: &mut SimCtx, a: NodeId, b: NodeId, budget: u64) {
        let mut remaining = budget;
        for (src, dst) in [(a, b), (b, a)] {
            // Greedy max–min: repeatedly send the sender photo most novel
            // with respect to the receiver's *current* collection. Photos
            // whose transmission the link ate are not retried this
            // contact (they would be re-picked forever otherwise).
            let mut failed: Vec<photodtn_coverage::PhotoId> = Vec::new();
            loop {
                let candidate = ctx
                    .collection(src)
                    .iter()
                    .filter(|p| {
                        !ctx.collection(dst).contains(p.id)
                            && p.size <= remaining
                            && !failed.contains(&p.id)
                    })
                    .map(|p| (self.novelty(p, ctx.collection(dst)), *p))
                    .max_by(|(na, pa), (nb, pb)| na.total_cmp(nb).then(pb.id.cmp(&pa.id)));
                let Some((novelty, photo)) = candidate else {
                    break;
                };
                if novelty <= 0.0 {
                    break; // receiver already has an identical-feature photo
                }
                if !self.make_room(ctx, dst, photo.size, novelty) {
                    break;
                }
                remaining -= photo.size;
                if ctx.contact_transfer().arrived() {
                    ctx.collection_mut(dst).insert(photo);
                } else {
                    failed.push(photo.id);
                }
            }
        }
    }

    fn on_upload(&mut self, ctx: &mut SimCtx, node: NodeId, budget: u64) {
        let mut remaining = budget;
        let mut bytes = 0;
        let mut failed: Vec<photodtn_coverage::PhotoId> = Vec::new();
        loop {
            let candidate = ctx
                .collection(node)
                .iter()
                .filter(|p| p.size <= remaining && !failed.contains(&p.id))
                .map(|p| (self.novelty(p, ctx.cc_collection()), *p))
                .max_by(|(na, pa), (nb, pb)| na.total_cmp(nb).then(pb.id.cmp(&pa.id)));
            let Some((_, photo)) = candidate else { break };
            if ctx.upload_photo(photo).acked() {
                ctx.collection_mut(node).remove(photo.id);
            } else {
                failed.push(photo.id);
            }
            remaining -= photo.size;
            bytes += photo.size;
        }
        ctx.note_upload_bytes(bytes);
    }

    fn export_global_state(&self) -> Option<String> {
        // Pure configuration: the scoring weights come from the
        // constructor, not the run, so there is nothing to snapshot.
        Some("{}".to_string())
    }

    fn import_global_state(&mut self, _state: &str) -> Result<(), String> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use photodtn_contacts::synth::{CommunityTraceGenerator, TraceStyle};
    use photodtn_coverage::{ColorHistogram, PhotoMeta};
    use photodtn_geo::{Angle, Point};
    use photodtn_sim::{SimConfig, Simulation};

    fn photo(id: u64, x: f64, t: f64) -> Photo {
        Photo::new(
            id,
            PhotoMeta::new(
                Point::new(x, 0.0),
                100.0,
                Angle::from_degrees(45.0),
                Angle::ZERO,
            ),
            t,
        )
        .with_size(1)
    }

    #[test]
    fn distance_components() {
        let pn = PhotoNet::new();
        let a = photo(1, 0.0, 0.0);
        let b = photo(2, 1000.0, 3600.0);
        // 1 km + 1 h → 1.0 + 1.0, identical (flat) histograms add 0
        assert!((pn.distance(&a, &b) - 2.0).abs() < 1e-9);
        assert_eq!(pn.distance(&a, &a), 0.0);
        let mut c = photo(3, 0.0, 0.0);
        c.histogram = ColorHistogram([1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
        let mut d = photo(4, 0.0, 0.0);
        d.histogram = ColorHistogram([0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
        assert!((pn.distance(&c, &d) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn novelty_prefers_distant_photos() {
        let pn = PhotoNet::new();
        let collection: PhotoCollection = [photo(1, 0.0, 0.0), photo(2, 100.0, 0.0)]
            .into_iter()
            .collect();
        let near = photo(3, 10.0, 0.0);
        let far = photo(4, 5000.0, 0.0);
        assert!(pn.novelty(&far, &collection) > pn.novelty(&near, &collection));
        // empty collection → infinite novelty
        assert_eq!(pn.novelty(&near, &PhotoCollection::new()), f64::INFINITY);
    }

    #[test]
    fn eviction_removes_most_redundant() {
        let pn = PhotoNet::new();
        let collection: PhotoCollection = [
            photo(1, 0.0, 0.0),
            photo(2, 5.0, 0.0),
            photo(3, 4000.0, 0.0),
        ]
        .into_iter()
        .collect();
        let (_, victim) = pn.most_redundant(&collection).unwrap();
        assert!(
            victim.id.0 == 1 || victim.id.0 == 2,
            "redundant pair is 1/2, not 3"
        );
    }

    #[test]
    fn simulation_runs_and_delivers() {
        let trace = CommunityTraceGenerator::new(TraceStyle::MitLike)
            .with_num_nodes(12)
            .with_duration_hours(30.0)
            .generate(2);
        let config = SimConfig::mit_default().with_photos_per_hour(30.0);
        let result = Simulation::new(&config, &trace, 1).run(&mut PhotoNet::new());
        assert_eq!(result.scheme, "photonet");
        assert!(result.final_sample().delivered_photos > 0);
    }
}
