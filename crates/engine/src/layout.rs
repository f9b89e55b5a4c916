//! Incremental layout, retained display lists, and damage accounting
//! (DESIGN.md §6k).
//!
//! The browser runs one [`RenderPipeline::render_frame`] pass per
//! produced frame, in both rendering modes:
//!
//! 1. **Fingerprints.** Every node gets a subtree fingerprint
//!    `fp(n) = H(ctx(n), content(n), fp(children…))`, where `ctx(n)`
//!    chains the selector-salient features (tag / id / classes /
//!    attributes) of every ancestor. A class flip on a parent therefore
//!    changes every descendant's fingerprint (descendant combinators may
//!    restyle them), and any content edit bubbles up the ancestor chain
//!    (content size feeds ancestor heights). Animation overlay values
//!    and inline `style` attributes are part of `content(n)`, so all
//!    three invalidation sources the style system reacts to — DOM
//!    mutations, inline-style writes, animation ticks — land in the
//!    fingerprints *without consulting* the style cache or the effect
//!    gate (pricing must not depend on either flag; see the oracle
//!    parity test).
//! 2. **Measure.** A bottom-up pass computes each element's box metrics
//!    from its [`ComputedStyle`]. Entries are cached per node keyed by
//!    `(stylesheet generation, subtree fingerprint)`: when the pipeline
//!    is enabled, a subtree whose root's key matches is *reused* —
//!    nothing under it is re-measured or re-styled. Disabled
//!    ([`crate::Oracles::paint_incremental`] off), the same pass
//!    measures every element every frame: the naive oracle.
//! 3. **Position.** A cheap top-down pass assigns final boxes (block
//!    stacking in a fixed mobile viewport). It always walks the whole
//!    tree — positions depend on earlier siblings — and is not counted
//!    as layout work.
//! 4. **Display list & damage.** One display item per element, with a
//!    stable per-node item ID. Diffing against the retained list from
//!    the previous frame yields the damage accounting: items whose rect
//!    or paint fingerprint changed, plus appearing and disappearing
//!    items.
//!
//! The *pricing inputs* ([`FrameRenderInfo`]: element count, dirty
//! elements from the fingerprint diff, damage items, total items) are
//! derived identically in both modes — the enabled flag only gates the
//! cache-reuse machinery — so a run's energy and QoS metrics are
//! byte-identical between the two modes; only the `layout`/`paint`
//! counters (and the style counters, since reused subtrees skip style
//! resolution) differ. The oracle parity test checks exactly that.

use greenweb_css::{ComputedStyle, CssValue};
use greenweb_dom::{Document, NodeId};
use std::collections::HashMap;
use std::fmt::{self, Write as _};

/// Layout viewport width, px (a typical mobile portrait viewport).
pub const VIEWPORT_WIDTH: f64 = 360.0;
/// Layout viewport height, px.
pub const VIEWPORT_HEIGHT: f64 = 640.0;
/// Height charged per text child when a box has no explicit height.
pub const TEXT_LINE_HEIGHT: f64 = 16.0;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_bytes(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash = (hash ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    hash
}

fn fnv_str(hash: u64, s: &str) -> u64 {
    // Separator byte keeps ("ab","c") distinct from ("a","bc").
    fnv_bytes(fnv_bytes(hash, s.as_bytes()), &[0xff])
}

fn fnv_u64(hash: u64, v: u64) -> u64 {
    fnv_bytes(hash, &v.to_le_bytes())
}

/// Feeds formatted output straight into an FNV-64 state.
struct FnvWriter(u64);

impl fmt::Write for FnvWriter {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0 = fnv_bytes(self.0, s.as_bytes());
        Ok(())
    }
}

/// `fnv_str(hash, &format!("{value:?}"))` without building the string.
fn fnv_debug(hash: u64, value: &impl fmt::Debug) -> u64 {
    let mut w = FnvWriter(hash);
    // Infallible: `FnvWriter::write_str` never fails.
    let _ = write!(w, "{value:?}");
    fnv_bytes(w.0, &[0xff])
}

/// Layout-stage counters, reported in [`crate::SimReport`] and the
/// metrics JSON (`"layout":{…}`). The oracle parity test zeroes the
/// mode-dependent fields with the [`crate::OraclePair::PAINT_INCREMENTAL`]
/// mask before comparing both modes' `RunMetrics::parity_json`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LayoutStats {
    /// Frames the pipeline laid out (one per produced frame).
    pub relayouts: u64,
    /// Elements actually measured (style resolved + box computed).
    /// The naive oracle measures every element every frame; the
    /// incremental path only the dirty ones.
    pub elements_laid_out: u64,
    /// Clean subtrees served whole from the measure cache (incremental
    /// mode only; always zero for the oracle).
    pub subtree_reuses: u64,
    /// Elements whose subtree fingerprint changed since the previous
    /// frame — the machinery-independent dirty count layout pricing
    /// uses in *both* modes.
    pub dirty_elements: u64,
}

/// Paint-stage counters, reported next to [`LayoutStats`] as the
/// `"paint":{…}` trailing object.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PaintStats {
    /// Frames charged the full flat paint price (all items damaged,
    /// zero DOM-visible damage — out-of-band canvas drawing — or
    /// an empty display list).
    pub full_repaints: u64,
    /// Frames charged a partial price (some but not all items damaged).
    pub partial_repaints: u64,
    /// Display items (re)built this run. The oracle re-emits every item
    /// every frame.
    pub items_emitted: u64,
    /// Retained items reused unchanged (incremental mode only).
    pub items_reused: u64,
    /// Damaged items across the run: changed + appeared + disappeared —
    /// machinery-independent, prices paint in both modes.
    pub damage_items: u64,
    /// Total damaged area across the run, px² (sum of damaged item
    /// rects, deterministic integer rounding).
    pub damage_area: u64,
}

/// One positioned box in the layout tree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayoutBox {
    /// The element this box belongs to.
    pub node: NodeId,
    /// Left edge, px.
    pub x: f64,
    /// Top edge, px.
    pub y: f64,
    /// Border-box width, px.
    pub width: f64,
    /// Border-box height, px.
    pub height: f64,
}

/// One item of the retained display list.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DisplayItem {
    /// Stable item ID: assigned once per node, monotonically, and kept
    /// across frames so the damage diff can match items positionally.
    pub id: u64,
    /// The element painted by this item.
    pub node: NodeId,
    /// Item rect: left edge, px.
    pub x: f64,
    /// Item rect: top edge, px.
    pub y: f64,
    /// Item rect: width, px.
    pub width: f64,
    /// Item rect: height, px.
    pub height: f64,
    /// Fingerprint of the element's full computed style (with inline
    /// and animation-overlay values applied) — a style-only change
    /// damages the item even when its rect is unchanged.
    pub style_fp: u64,
}

impl DisplayItem {
    fn same_as(&self, other: &DisplayItem) -> bool {
        self.id == other.id
            && self.x.to_bits() == other.x.to_bits()
            && self.y.to_bits() == other.y.to_bits()
            && self.width.to_bits() == other.width.to_bits()
            && self.height.to_bits() == other.height.to_bits()
            && self.style_fp == other.style_fp
    }

    fn area_px2(&self) -> u64 {
        let area = (self.width.max(0.0) * self.height.max(0.0)).round();
        if area.is_finite() && area >= 0.0 {
            area as u64
        } else {
            0
        }
    }
}

/// The per-frame pricing inputs [`RenderPipeline::render_frame`]
/// returns. Derived identically in both rendering modes, so stage
/// pricing — and therefore every energy/QoS metric — does not depend
/// on whether the incremental machinery is enabled.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FrameRenderInfo {
    /// Elements in the document (one walk per frame; style pricing).
    pub elements: usize,
    /// Elements whose subtree fingerprint changed (layout pricing).
    pub dirty_elements: usize,
    /// Damaged display items this frame (paint pricing numerator).
    pub damage_items: usize,
    /// Display items in the current list (paint pricing denominator).
    pub total_items: usize,
}

/// Cached measurement of one element, valid while the stylesheet
/// generation and the element's subtree fingerprint both match.
#[derive(Debug, Clone, Copy)]
struct NodeMeasure {
    generation: u64,
    fp: u64,
    margin: f64,
    explicit_width: Option<f64>,
    /// Margin-box height: content (or explicit) height + both margins.
    outer_height: f64,
    style_fp: u64,
}

/// One animation-overlay value: node, property, value.
type OverlayEntry<'a> = (NodeId, &'a str, &'a CssValue);

/// Per-frame working buffers. Every per-node array is indexed by
/// [`NodeId::index`]; they live on the pipeline so that a frame
/// allocates nothing once they have grown to the document's size.
/// Their contents carry no meaning from one frame to the next.
#[derive(Debug, Default)]
struct FrameScratch {
    /// The document in pre-order.
    order: Vec<NodeId>,
    /// Traversal stack (empty between passes).
    stack: Vec<NodeId>,
    /// Elements the mark pass selected for measuring, in pre-order.
    to_measure: Vec<NodeId>,
    /// Chained hash of the node's and its ancestors' own content.
    ctx: Vec<u64>,
    /// Subtree fingerprint (seeded top-down with the node's context
    /// and own content, then completed bottom-up with its children's).
    fps: Vec<u64>,
    /// Content-box left edge and width children are placed in.
    content: Vec<(f64, f64)>,
    /// Next child's top edge.
    cursor: Vec<f64>,
    /// Position in the retained list of the node's previous item; the
    /// damage diff takes every entry back out.
    prev_item: Vec<Option<usize>>,
    /// The display list being built.
    items: Vec<DisplayItem>,
}

/// The incremental rendering pipeline: subtree fingerprints, the
/// measure cache, the retained display list, and the damage diff.
/// See the module docs for the frame anatomy.
#[derive(Debug)]
pub struct RenderPipeline {
    enabled: bool,
    /// Previous frame's subtree fingerprint per node; `None` for nodes
    /// that were not in that frame's tree, so a node that appears or
    /// is re-attached always counts as dirty.
    prev_fps: Vec<Option<u64>>,
    /// Measure cache + persistent per-node box metrics. Entries for
    /// clean subtrees stay valid across frames (their fingerprints
    /// haven't changed), which is what lets the position pass read
    /// metrics the measure pass skipped.
    measures: Vec<Option<NodeMeasure>>,
    /// Stable display-item ID per node.
    item_ids: Vec<Option<u64>>,
    next_item_id: u64,
    /// The retained display list (previous frame, document order).
    retained: Vec<DisplayItem>,
    /// Last frame's positioned boxes, document order.
    boxes: Vec<LayoutBox>,
    scratch: FrameScratch,
    layout_stats: LayoutStats,
    paint_stats: PaintStats,
}

impl Default for RenderPipeline {
    fn default() -> Self {
        Self::new(true)
    }
}

impl RenderPipeline {
    /// Creates a pipeline with the incremental machinery `enabled` or
    /// in oracle mode.
    pub fn new(enabled: bool) -> Self {
        RenderPipeline {
            enabled,
            prev_fps: Vec::new(),
            measures: Vec::new(),
            item_ids: Vec::new(),
            next_item_id: 0,
            retained: Vec::new(),
            boxes: Vec::new(),
            scratch: FrameScratch::default(),
            layout_stats: LayoutStats::default(),
            paint_stats: PaintStats::default(),
        }
    }

    /// Whether the incremental machinery is on.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Layout counters accumulated so far.
    pub fn layout_stats(&self) -> LayoutStats {
        self.layout_stats
    }

    /// Paint counters accumulated so far.
    pub fn paint_stats(&self) -> PaintStats {
        self.paint_stats
    }

    /// Last frame's positioned boxes, in document order.
    pub fn layout_boxes(&self) -> &[LayoutBox] {
        &self.boxes
    }

    /// The retained display list, in document order.
    pub fn display_list(&self) -> &[DisplayItem] {
        &self.retained
    }

    /// Runs the four per-frame passes (fingerprint → measure →
    /// position → display-list diff) over `doc`, resolving styles
    /// through `resolve` and applying the animation `overlay` on top.
    /// Returns the machinery-independent pricing inputs for this frame.
    pub fn render_frame(
        &mut self,
        doc: &Document,
        generation: u64,
        overlay: &HashMap<(NodeId, String), CssValue>,
        resolve: &mut dyn FnMut(NodeId) -> ComputedStyle,
    ) -> FrameRenderInfo {
        // Overlay values sorted by node, then property, for
        // deterministic hashing and application order.
        let mut overlays: Vec<OverlayEntry<'_>> = overlay
            .iter()
            .map(|((node, property), value)| (*node, property.as_str(), value))
            .collect();
        overlays.sort_unstable_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)));

        // Scripts append nodes between frames; the arena never shrinks.
        let len = doc.len().max(self.prev_fps.len());
        let s = &mut self.scratch;
        s.ctx.resize(len, 0);
        s.fps.resize(len, 0);
        s.content.resize(len, (0.0, VIEWPORT_WIDTH));
        s.cursor.resize(len, 0.0);
        s.prev_item.resize(len, None);
        self.prev_fps.resize(len, None);
        self.measures.resize(len, None);
        self.item_ids.resize(len, None);

        // Pass 1: fingerprints. Pre-order list once, contexts top-down,
        // fingerprints bottom-up over the reversed list (children come
        // after their parent in pre-order, so the reverse sees every
        // child before its parent).
        let root = doc.root();
        s.order.clear();
        s.stack.push(root);
        while let Some(n) = s.stack.pop() {
            s.order.push(n);
            push_children_reversed(doc, n, &mut s.stack);
        }
        let mut elements = 0usize;
        for &n in &s.order {
            let mut h = FNV_OFFSET;
            if let Some(el) = doc.element(n) {
                elements += 1;
                h = fnv_str(h, el.tag());
                for attr in el.attributes() {
                    h = fnv_str(h, &attr.name);
                    h = fnv_str(h, &attr.value);
                }
                for &(_, property, value) in overlay_of(&overlays, n) {
                    h = fnv_str(h, property);
                    h = fnv_debug(h, value);
                }
            } else if let Some(text) = doc.kind(n).as_text() {
                h = fnv_str(h, text);
            }
            let parent_ctx = doc.parent(n).map_or(FNV_OFFSET, |p| s.ctx[p.index()]);
            let ctx = fnv_u64(parent_ctx, h);
            s.ctx[n.index()] = ctx;
            s.fps[n.index()] = fnv_u64(ctx, h);
        }
        // Machinery-independent dirty count: elements whose subtree
        // fingerprint changed since the previous frame (all of them on
        // the first frame).
        let mut dirty_elements = 0usize;
        for &n in s.order.iter().rev() {
            let i = n.index();
            let mut h = s.fps[i];
            for child in doc.children(n) {
                h = fnv_u64(h, s.fps[child.index()]);
            }
            s.fps[i] = h;
            if doc.element(n).is_some() && self.prev_fps[i] != Some(h) {
                dirty_elements += 1;
            }
        }
        self.prev_fps.fill(None);
        for &n in &s.order {
            self.prev_fps[n.index()] = Some(s.fps[n.index()]);
        }

        // Pass 2a: mark. Pre-order descent that stops at clean subtree
        // roots when the incremental machinery is on.
        s.to_measure.clear();
        s.stack.push(root);
        let mut reuses = 0u64;
        while let Some(n) = s.stack.pop() {
            if doc.element(n).is_some() {
                let fp = s.fps[n.index()];
                let cached = self.measures[n.index()]
                    .is_some_and(|m| m.generation == generation && m.fp == fp);
                if self.enabled && cached {
                    reuses += 1;
                    continue; // whole subtree is clean: skip it
                }
                s.to_measure.push(n);
            }
            push_children_reversed(doc, n, &mut s.stack);
        }

        // Pass 2b: measure, bottom-up (reversed pre-order of the marked
        // region sees children before parents; clean children keep
        // their cached metrics).
        for &n in s.to_measure.iter().rev() {
            let mut style = resolve(n);
            for &(_, property, value) in overlay_of(&overlays, n) {
                style.set(property, value.clone());
            }
            let margin = style_px(&style, "margin").unwrap_or(0.0);
            let explicit_width = style_px(&style, "width");
            let explicit_height = style_px(&style, "height");
            let content_height = match explicit_height {
                Some(h) => h,
                None => {
                    let mut sum = 0.0;
                    for child in doc.children(n) {
                        if doc.element(child).is_some() {
                            sum += self.measures[child.index()].map_or(0.0, |m| m.outer_height);
                        } else if doc.kind(child).as_text().is_some() {
                            sum += TEXT_LINE_HEIGHT;
                        }
                    }
                    sum
                }
            };
            let mut style_fp = FNV_OFFSET;
            for (property, value) in style.iter() {
                style_fp = fnv_str(style_fp, property);
                style_fp = fnv_debug(style_fp, value);
            }
            self.measures[n.index()] = Some(NodeMeasure {
                generation,
                fp: s.fps[n.index()],
                margin,
                explicit_width,
                outer_height: content_height + 2.0 * margin,
                style_fp,
            });
        }

        // Pass 3: position. Always a full walk — block stacking means a
        // box's y depends on every earlier sibling — and deliberately
        // not counted as layout work (it is the cheap part).
        self.boxes.clear();
        for &n in &s.order {
            let i = n.index();
            // What a node without a box (the root, text) offers its
            // children: the full viewport width, stacking from 0.
            s.content[i] = (0.0, VIEWPORT_WIDTH);
            s.cursor[i] = 0.0;
            let Some(parent) = doc.parent(n) else {
                continue;
            };
            let p = parent.index();
            if doc.element(n).is_some() {
                let Some(m) = self.measures[i] else {
                    continue;
                };
                let (px, pw) = s.content[p];
                let width = m
                    .explicit_width
                    .unwrap_or_else(|| (pw - 2.0 * m.margin).max(0.0));
                let x = px + m.margin;
                let y = s.cursor[p] + m.margin;
                let height = (m.outer_height - 2.0 * m.margin).max(0.0);
                self.boxes.push(LayoutBox {
                    node: n,
                    x,
                    y,
                    width,
                    height,
                });
                s.content[i] = (x, width);
                s.cursor[i] = y;
                s.cursor[p] += m.outer_height;
            } else if doc.kind(n).as_text().is_some() {
                s.cursor[p] += TEXT_LINE_HEIGHT;
            }
        }

        // Pass 4: display list + damage diff against the retained list.
        // Item IDs are per node, so matching by node matches by ID.
        s.items.clear();
        for b in &self.boxes {
            let i = b.node.index();
            let id = match self.item_ids[i] {
                Some(id) => id,
                None => {
                    let id = self.next_item_id;
                    self.next_item_id += 1;
                    self.item_ids[i] = Some(id);
                    id
                }
            };
            s.items.push(DisplayItem {
                id,
                node: b.node,
                x: b.x,
                y: b.y,
                width: b.width,
                height: b.height,
                style_fp: self.measures[i].map_or(0, |m| m.style_fp),
            });
        }
        for (at, old) in self.retained.iter().enumerate() {
            s.prev_item[old.node.index()] = Some(at);
        }
        let mut damage_items = 0usize;
        let mut damage_area = 0u64;
        let mut reused_items = 0u64;
        for item in &s.items {
            match s.prev_item[item.node.index()].take() {
                Some(at) if self.retained[at].same_as(item) => reused_items += 1,
                _ => {
                    damage_items += 1;
                    damage_area += item.area_px2();
                }
            }
        }
        // Retained items nothing matched have disappeared.
        for old in &self.retained {
            if s.prev_item[old.node.index()].take().is_some() {
                damage_items += 1;
                damage_area += old.area_px2();
            }
        }
        let total_items = s.items.len();

        // Counters. The damage/dirty numbers are mode-independent; the
        // laid-out/reuse/emit split is where the two modes differ.
        self.layout_stats.relayouts += 1;
        self.layout_stats.dirty_elements += dirty_elements as u64;
        self.layout_stats.elements_laid_out += s.to_measure.len() as u64;
        if self.enabled {
            self.layout_stats.subtree_reuses += reuses;
            self.paint_stats.items_emitted += damage_items.min(total_items) as u64;
            self.paint_stats.items_reused += reused_items;
        } else {
            self.paint_stats.items_emitted += total_items as u64;
        }
        self.paint_stats.damage_items += damage_items as u64;
        self.paint_stats.damage_area += damage_area;
        // Zero damage on a produced frame counts as full: the change is
        // invisible to the DOM-level diff (canvas drawing), so the whole
        // layer repaints (see `FrameCostModel::paint_work`).
        if total_items == 0 || damage_items == 0 || damage_items >= total_items {
            self.paint_stats.full_repaints += 1;
        } else {
            self.paint_stats.partial_repaints += 1;
        }

        std::mem::swap(&mut self.retained, &mut s.items);
        FrameRenderInfo {
            elements,
            dirty_elements,
            damage_items,
            total_items,
        }
    }
}

/// Pushes `n`'s children onto `stack` last-first, so the leftmost pops
/// first (pre-order, the order of [`Document::descendants`]).
fn push_children_reversed(doc: &Document, n: NodeId, stack: &mut Vec<NodeId>) {
    let mut child = doc.last_child(n);
    while let Some(c) = child {
        stack.push(c);
        child = doc.prev_sibling(c);
    }
}

/// The entries for `node` in `sorted` (sorted by node, then property).
fn overlay_of<'s, 'a>(sorted: &'s [OverlayEntry<'a>], node: NodeId) -> &'s [OverlayEntry<'a>] {
    let start = sorted.partition_point(|e| e.0 < node);
    let len = sorted[start..].partition_point(|e| e.0 == node);
    &sorted[start..start + len]
}

/// Extracts a pixel magnitude from a length or unitless number;
/// keywords, percentages, and compound values do not size boxes here.
fn style_px(style: &ComputedStyle, property: &str) -> Option<f64> {
    match style.get(property) {
        Some(CssValue::Length(l)) => Some(l.px),
        Some(CssValue::Number(n)) => Some(*n),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use greenweb_css::stylesheet::parse_stylesheet;
    use greenweb_css::StyleEngine;
    use greenweb_dom::parse_html;

    fn pipeline_pair() -> (RenderPipeline, RenderPipeline) {
        (RenderPipeline::new(true), RenderPipeline::new(false))
    }

    fn render(
        pipe: &mut RenderPipeline,
        doc: &Document,
        engine: &StyleEngine,
        overlay: &HashMap<(NodeId, String), CssValue>,
    ) -> FrameRenderInfo {
        pipe.render_frame(doc, engine.generation(), overlay, &mut |n| {
            engine.compute_style(doc, n, None)
        })
    }

    fn fixture() -> (Document, StyleEngine) {
        let doc = parse_html(
            "<div id='a' class='card'><p>one</p><p>two</p></div>\
             <div id='b'><span class='hot'>x</span></div>",
        )
        .expect("parses");
        let engine = StyleEngine::new(
            parse_stylesheet(
                ".card { margin: 4px; } p { height: 20px; } \
                 .hot { width: 50px; height: 10px; }",
            )
            .expect("parses"),
        );
        (doc, engine)
    }

    #[test]
    fn first_frame_measures_everything_and_damages_everything() {
        let (doc, engine) = fixture();
        let (mut incr, _) = pipeline_pair();
        let overlay = HashMap::new();
        let info = render(&mut incr, &doc, &engine, &overlay);
        assert_eq!(info.elements, 5);
        assert_eq!(info.dirty_elements, 5);
        assert_eq!(info.total_items, 5);
        assert_eq!(info.damage_items, 5);
        assert_eq!(incr.layout_stats().elements_laid_out, 5);
        assert_eq!(incr.layout_stats().subtree_reuses, 0);
    }

    #[test]
    fn clean_second_frame_reuses_all_subtrees() {
        let (doc, engine) = fixture();
        let (mut incr, mut naive) = pipeline_pair();
        let overlay = HashMap::new();
        render(&mut incr, &doc, &engine, &overlay);
        let info = render(&mut incr, &doc, &engine, &overlay);
        assert_eq!(info.dirty_elements, 0);
        assert_eq!(info.damage_items, 0);
        assert_eq!(incr.layout_stats().elements_laid_out, 5, "no re-measures");
        assert_eq!(incr.layout_stats().subtree_reuses, 2, "both top divs");
        // The oracle re-measures everything but reports identical
        // pricing inputs.
        render(&mut naive, &doc, &engine, &overlay);
        let naive_info = render(&mut naive, &doc, &engine, &overlay);
        assert_eq!(naive_info, info);
        assert_eq!(naive.layout_stats().elements_laid_out, 10);
        assert_eq!(naive.layout_stats().subtree_reuses, 0);
    }

    #[test]
    fn modes_agree_on_geometry_and_display_list_across_mutations() {
        let (mut doc, engine) = fixture();
        let (mut incr, mut naive) = pipeline_pair();
        let mut overlay = HashMap::new();
        for step in 0..4u32 {
            let a = render(&mut incr, &doc, &engine, &overlay);
            let b = render(&mut naive, &doc, &engine, &overlay);
            assert_eq!(a, b, "pricing inputs diverged at step {step}");
            assert_eq!(incr.layout_boxes(), naive.layout_boxes());
            assert_eq!(incr.display_list(), naive.display_list());
            // Mutate: attribute flip, then an inline style, then an
            // overlay (animation) write.
            let b_id = doc.element_by_id("b").expect("b");
            match step {
                0 => {
                    let el = doc.element_mut(b_id).expect("element");
                    el.set_attribute("class", "card");
                }
                1 => {
                    let el = doc.element_mut(b_id).expect("element");
                    el.set_attribute("style", "height: 33px");
                }
                _ => {
                    overlay.insert(
                        (b_id, "margin".to_string()),
                        CssValue::Number(f64::from(step)),
                    );
                }
            }
        }
    }

    #[test]
    fn leaf_change_dirties_only_its_ancestor_chain() {
        let (mut doc, engine) = fixture();
        let (mut incr, _) = pipeline_pair();
        let overlay = HashMap::new();
        render(&mut incr, &doc, &engine, &overlay);
        let span = doc.elements_by_tag("span")[0];
        let el = doc.element_mut(span).expect("element");
        el.set_attribute("style", "width: 80px");
        let info = render(&mut incr, &doc, &engine, &overlay);
        // Dirty: the span plus its parent div (content hash bubbles
        // up); the other top-level div's subtree is reused whole.
        assert_eq!(info.dirty_elements, 2);
        assert!(incr.layout_stats().subtree_reuses >= 1);
        // Damage: span box changed; parent's box keeps its geometry but
        // its style is untouched, so only the subtree's changed items
        // plus geometry shifts count.
        assert!(info.damage_items >= 1 && info.damage_items < info.total_items);
    }

    #[test]
    fn parent_class_flip_dirties_every_descendant() {
        let (mut doc, engine) = fixture();
        let (mut incr, _) = pipeline_pair();
        let overlay = HashMap::new();
        render(&mut incr, &doc, &engine, &overlay);
        let a = doc.element_by_id("a").expect("a");
        let el = doc.element_mut(a).expect("element");
        el.set_attribute("class", "other");
        let info = render(&mut incr, &doc, &engine, &overlay);
        // div#a + its two <p> children are dirty (descendant selectors
        // may restyle them); div#b's subtree is clean.
        assert_eq!(info.dirty_elements, 3);
    }

    #[test]
    fn removed_items_count_as_damage() {
        let (mut doc, engine) = fixture();
        let (mut incr, mut naive) = pipeline_pair();
        let overlay = HashMap::new();
        render(&mut incr, &doc, &engine, &overlay);
        render(&mut naive, &doc, &engine, &overlay);
        let b_id = doc.element_by_id("b").expect("b");
        doc.detach(b_id);
        let a = render(&mut incr, &doc, &engine, &overlay);
        let b = render(&mut naive, &doc, &engine, &overlay);
        assert_eq!(a, b);
        assert_eq!(a.total_items, 3);
        // Damage: the two removed items (div#b + span) at minimum.
        assert!(a.damage_items >= 2);
        assert_eq!(incr.display_list(), naive.display_list());
    }

    #[test]
    fn stable_item_ids_survive_clean_frames() {
        let (doc, engine) = fixture();
        let (mut incr, _) = pipeline_pair();
        let overlay = HashMap::new();
        render(&mut incr, &doc, &engine, &overlay);
        let ids: Vec<u64> = incr.display_list().iter().map(|i| i.id).collect();
        render(&mut incr, &doc, &engine, &overlay);
        let again: Vec<u64> = incr.display_list().iter().map(|i| i.id).collect();
        assert_eq!(ids, again);
    }

    #[test]
    fn dom_growth_and_reattachment_agree_across_modes() {
        let (mut doc, engine) = fixture();
        let (mut incr, mut naive) = pipeline_pair();
        let overlay = HashMap::new();
        let mut frame = |doc: &Document| {
            let a = render(&mut incr, doc, &engine, &overlay);
            let b = render(&mut naive, doc, &engine, &overlay);
            assert_eq!(a, b, "pricing inputs diverged");
            assert_eq!(incr.layout_boxes(), naive.layout_boxes());
            assert_eq!(incr.display_list(), naive.display_list());
            a
        };
        frame(&doc);
        // Nodes allocated after the first frame lie past every per-node
        // buffer's old length.
        let a = doc.element_by_id("a").expect("a");
        let li = doc.create_element("li");
        let text = doc.create_text("new");
        doc.append_child(li, text);
        doc.append_child(a, li);
        let grown = frame(&doc);
        assert_eq!(grown.elements, 6);
        assert_eq!(grown.dirty_elements, 2, "the new <li> and div#a");
        assert_eq!(grown.total_items, 6);
        // Detach div#b for a frame, then put it back unchanged: its
        // fingerprint matches the one from before the detach, but it
        // was absent from the previous frame, so it and its <span>
        // count as dirty and as damage.
        let b = doc.element_by_id("b").expect("b");
        doc.detach(b);
        let detached = frame(&doc);
        assert_eq!(detached.dirty_elements, 0);
        assert_eq!(detached.damage_items, 2);
        doc.append_child(doc.root(), b);
        let back = frame(&doc);
        assert_eq!(back.dirty_elements, 2);
        assert_eq!(back.damage_items, 2);
        assert_eq!(back.total_items, 6);
    }
}
