//! **Craigslist** — a plain classifieds list (Table 3 row 8).
//!
//! Microbenchmark: **moving** (scrolling listings), *continuous*. The
//! page is deliberately plain — small DOM, cheap text rows — so scrolling
//! is light and the little cluster covers even the imperceptible target;
//! the interesting contrast with Amazon is how much lower the runtime can
//! sit on the ladder for the same QoS type. 84.6% of events annotated.

use crate::apps::{id_range, item_list};
use crate::traces::{micro_swipe, session, Gesture};
use crate::{Interaction, Workload};
use greenweb::qos::{QosTarget, QosType};
use greenweb_engine::{App, FrameCostModel};

fn html() -> String {
    format!(
        "<div id='board'><h1 id='city'>listings</h1>\
         <ul id='rows'>{}</ul>\
         <button id='next'>next 100</button></div>",
        item_list("li", "post", 40, "posting")
    )
}

const BASE_CSS: &str = "
    #rows { font-size: 12px; }
    li { margin: 1px; }
";

const ANNOTATIONS: &str = "
    #rows:QoS { ontouchmove-qos: continuous; }
    .post:QoS { onclick-qos: single, short; }
    #next:QoS { onclick-qos: single, short; }
";

const SCRIPT: &str = "
    addEventListener(getElementById('rows'), 'touchmove', function(e) {
        work(2500000);
        markDirty();
    });
    function openPost(e) {
        work(30000000);
        markDirty();
    }
    var i = 0;
    for (i = 1; i <= 40; i = i + 1) {
        addEventListener(getElementById('post-' + i), 'click', openPost);
    }
    addEventListener(getElementById('next'), 'click', function(e) {
        work(55000000);
        markDirty();
    });
";

/// Builds the Craigslist workload.
pub fn workload() -> Workload {
    let cost = FrameCostModel {
        style_cycles_per_element: 18_000.0,
        layout_cycles_per_element: 12_000.0,
        paint_cycles: 2.5e6,
        composite_cycles: 1.0e6,
        composite_independent_ms: 0.8,
        ..FrameCostModel::default()
    };
    let base = App::builder("Craigslist")
        .html(html())
        .css(BASE_CSS)
        .script(SCRIPT)
        .cost(cost);
    let app = base.clone().css(ANNOTATIONS).build();
    let unannotated_app = base.build();
    let menu = [
        Gesture::Swipe {
            target: "rows",
            moves: (6, 12),
        },
        Gesture::Tap(id_range("post", 40)),
        Gesture::Tap(vec!["next"]),
    ];
    Workload {
        name: "Craigslist",
        app,
        unannotated_app,
        micro: micro_swipe("rows", 45, 1_600.0),
        full: session(0xC4A165, false, &menu, 22, 25),
        interaction: Interaction::Moving,
        micro_qos_type: QosType::Continuous,
        micro_target: QosTarget::CONTINUOUS,
        full_secs: 25,
        full_events: 22,
        annotation_pct: 84.6,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use greenweb_acmp::CoreType;
    use greenweb_acmp::{CpuConfig, SimTime};
    use greenweb_dom::{EventType, NodeId};
    use greenweb_engine::{Browser, InputId, Scheduler, SchedulerCtx, Trace};

    /// Pin the little cluster's top frequency for the whole run.
    #[derive(Debug)]
    struct LittlePin;
    impl Scheduler for LittlePin {
        fn name(&self) -> String {
            "little-pin".into()
        }
        fn on_input(
            &mut self,
            _now: SimTime,
            _uid: InputId,
            _event: EventType,
            _target: NodeId,
            ctx: &SchedulerCtx<'_>,
        ) -> Option<CpuConfig> {
            Some(ctx.cpu.platform().max_config(CoreType::Little))
        }
    }

    #[test]
    fn plain_page_scrolls_at_60fps_on_little() {
        let w = workload();
        let trace = Trace::builder()
            .touchstart_id(20.0, "rows")
            .touchmove_run(50.0, "rows", 30, 16.6)
            .end_ms(1_200.0)
            .build();
        let mut b = Browser::new(&w.app, LittlePin).unwrap();
        let report = b.run(&trace).unwrap();
        let late = report
            .frames
            .iter()
            .filter(|f| f.seq > 0 && f.latency.as_millis_f64() > 16.7)
            .count();
        assert_eq!(
            late, 0,
            "craigslist should hit 60 FPS even on the little cluster"
        );
    }
}
