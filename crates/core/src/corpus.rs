//! Corpus registration: the one description of "a webbase's sites and
//! layers" every build reads.
//!
//! The 13-site car demo, the apartment example in `webbase-bench`, and
//! the generated corpora all describe themselves as a [`Corpus`]: the
//! designer sessions to replay (or the maps a designer shipped as
//! F-logic fact text), the logical relations over them, and the UR
//! hierarchy and compatibility rules. [`crate::Engine::build_corpus`] is
//! the one consumer.

use std::sync::Arc;
use webbase_logical::{paper_schema, LogicalRelation};
use webbase_navigation::gen_sessions;
use webbase_navigation::persist::PersistError;
use webbase_navigation::recorder::{DesignerAction, MapStats, RecordError};
use webbase_navigation::sessions;
use webbase_relational::prelude::Expr;
use webbase_relational::Standardizer;
use webbase_ur::compat::{example62_rules, CompatRules};
use webbase_ur::hierarchy::{figure5, Alternative, ChoiceGroup, Hierarchy};
use webbase_webworld::data::Dataset;
use webbase_webworld::generate::GenCorpus;

/// What building a webbase produced: per-site maps and their §7
/// automation statistics.
#[derive(Debug, Clone)]
pub struct BuildReport {
    pub sites: Vec<(String, MapStats)>,
}

impl BuildReport {
    /// Render the §7 map-builder statistics table.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "Map builder statistics (objects / attributes / manual facts / manual % / auto-standardised)\n",
        );
        for (site, s) in &self.sites {
            out.push_str(&format!(
                "  {site:<24} {:>4} objects  {:>5} attrs  {:>3} manual  {:>5.1}%  {:>2} auto-std\n",
                s.objects,
                s.attributes,
                s.manual_facts,
                100.0 * s.manual_ratio(),
                s.auto_standardized
            ));
        }
        out
    }
}

/// Top-level errors.
#[derive(Debug)]
pub enum WebbaseError {
    Record(String, RecordError),
    /// A shipped fact map (at `position` in [`Corpus::fact_maps`]) did
    /// not parse as a navigation map.
    FactMap {
        position: usize,
        error: PersistError,
    },
    /// A §7-style SELECT failed to parse or evaluate.
    Select(String),
    /// Pre-flight static analysis found E-level defects in the maps
    /// being loaded; the report carries every finding.
    Check(webbase_webcheck::Report),
    /// The write-ahead journal could not be opened or read. (A *torn*
    /// journal is not an error — recovery drops the torn records and
    /// counts them — this is the file itself being unreachable.)
    Journal(std::io::Error),
}

impl std::fmt::Display for WebbaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WebbaseError::Record(site, e) => write!(f, "recording {site}: {e}"),
            WebbaseError::FactMap { position, error } => {
                write!(f, "loading fact map #{position}: {error}")
            }
            WebbaseError::Select(m) => write!(f, "{m}"),
            WebbaseError::Check(r) => {
                write!(f, "pre-flight check rejected the maps:\n{}", r.render())
            }
            WebbaseError::Journal(e) => write!(f, "journal: {e}"),
        }
    }
}

impl std::error::Error for WebbaseError {}

/// One site's registration: the designer session to replay and the
/// attribute standardiser the recording uses.
pub struct CorpusSite {
    pub host: String,
    pub session: Vec<DesignerAction>,
    pub standardizer: Standardizer,
}

/// A complete webbase description: sites plus the logical and UR
/// layers over them.
pub struct Corpus {
    /// The underlying dataset, when the corpus has one (the car demo
    /// does; generated corpora carry their data inside the site specs).
    pub data: Option<Arc<Dataset>>,
    pub sites: Vec<CorpusSite>,
    /// Maps the designer shipped as F-logic fact text (as produced by
    /// `webbase_navigation::persist::render_facts`), loaded after the
    /// recorded sites. Shipped maps are untrusted input: an E-level
    /// finding in any of them rejects the build.
    pub fact_maps: Vec<String>,
    pub relations: Vec<LogicalRelation>,
    pub hierarchy: Hierarchy,
    pub rules: CompatRules,
}

impl Corpus {
    /// The paper's used-car webbase: the thirteen designer sessions,
    /// the Table 2 logical schema, and the Figure 5 hierarchy under the
    /// Example 6.2 compatibility rules.
    pub fn paper(data: Arc<Dataset>) -> Corpus {
        let sites = sessions::all_sessions(&data)
            .into_iter()
            .map(|(host, session)| CorpusSite {
                host: host.to_string(),
                session,
                standardizer: Standardizer::car_domain(),
            })
            .collect();
        Corpus {
            data: Some(data),
            sites,
            fact_maps: Vec::new(),
            relations: paper_schema(),
            hierarchy: figure5(),
            rules: example62_rules(),
        }
    }

    /// The apartment-domain webbase of `examples/apartment_hunting.rs`:
    /// two rental sites, two logical relations, the two-group AptUR
    /// hierarchy with no compatibility rules.
    pub fn apartments() -> Corpus {
        use webbase_navigation::extractor::{CellParse, ExtractionSpec, FieldSpec};
        let listings_session = vec![
            DesignerAction::Goto("http://www.aptlistings.com/".into()),
            DesignerAction::SubmitForm {
                action: "/cgi-bin/find".into(),
                values: vec![("borough".into(), "brooklyn".into())],
            },
            DesignerAction::MarkDataPage {
                relation: "aptListings".into(),
                spec: ExtractionSpec::Table {
                    fields: vec![
                        FieldSpec::new("Borough", "borough", CellParse::Text),
                        FieldSpec::new("Bedrooms", "bedrooms", CellParse::Number),
                        FieldSpec::new("Rent", "rent", CellParse::Number),
                        FieldSpec::new("Contact", "contact", CellParse::Text),
                    ],
                },
            },
            DesignerAction::FollowLink("More".into()),
        ];
        let guide_session = vec![
            DesignerAction::Goto("http://www.rentguide.com/".into()),
            DesignerAction::SubmitForm {
                action: "/cgi-bin/guide".into(),
                values: vec![("borough".into(), "queens".into()), ("beds".into(), "1".into())],
            },
            DesignerAction::MarkDataPage {
                relation: "rentGuide".into(),
                spec: ExtractionSpec::Table {
                    fields: vec![
                        FieldSpec::new("Borough", "borough", CellParse::Text),
                        FieldSpec::new("Bedrooms", "bedrooms", CellParse::Number),
                        FieldSpec::new("Fair Rent", "fairrent", CellParse::Number),
                    ],
                },
            },
        ];
        let standardizer = || {
            let mut s = Standardizer::new(["borough", "bedrooms", "rent", "contact", "fairrent"]);
            s.map("beds", "bedrooms");
            s
        };
        let sites = vec![
            CorpusSite {
                host: "www.aptlistings.com".into(),
                session: listings_session,
                standardizer: standardizer(),
            },
            CorpusSite {
                host: "www.rentguide.com".into(),
                session: guide_session,
                standardizer: standardizer(),
            },
        ];
        let relations = vec![
            LogicalRelation::new(
                "listings",
                Expr::relation("aptListings").project(["borough", "bedrooms", "rent", "contact"]),
            ),
            LogicalRelation::new(
                "guidelines",
                Expr::relation("rentGuide").project(["borough", "bedrooms", "fairrent"]),
            ),
        ];
        let hierarchy = Hierarchy {
            ur_name: "AptUR".into(),
            groups: vec![
                ChoiceGroup {
                    name: "Listings".into(),
                    alternatives: vec![Alternative::new("Listings", "listings")],
                },
                ChoiceGroup {
                    name: "FairRent".into(),
                    alternatives: vec![Alternative::new("FairRent", "guidelines")],
                },
            ],
        };
        Corpus {
            data: None,
            sites,
            fact_maps: Vec::new(),
            relations,
            hierarchy,
            rules: CompatRules::default(),
        }
    }

    /// A generated corpus: one site, logical relation, and UR
    /// alternative per [`webbase_webworld::generate::SiteSpec`]. The
    /// per-site attribute vocabularies are disjoint (index-suffixed),
    /// so every query's minimal covering set is exactly one site — the
    /// hierarchy scales to hundreds of alternatives in one choice
    /// group (see `webbase_ur::maximal::compatible_sets`).
    pub fn generated(gen: &GenCorpus) -> Corpus {
        let mut sites = Vec::new();
        let mut relations = Vec::new();
        let mut alternatives = Vec::new();
        for spec in &gen.specs {
            sites.push(CorpusSite {
                host: spec.host.clone(),
                session: gen_sessions::session(spec),
                standardizer: gen_sessions::standardizer(spec),
            });
            let logical = format!("gensite{}", spec.index);
            relations.push(LogicalRelation::new(
                &logical,
                Expr::relation(&spec.relation).project(spec.attrs()),
            ));
            alternatives.push(Alternative::new(&format!("GenSite{}", spec.index), &logical));
        }
        Corpus {
            data: None,
            sites,
            fact_maps: Vec::new(),
            relations,
            hierarchy: Hierarchy {
                ur_name: "GenUR".into(),
                groups: vec![ChoiceGroup { name: "sources".into(), alternatives }],
            },
            rules: CompatRules::default(),
        }
    }

    /// The same layers over maps the designer shipped instead of
    /// sessions to replay — the "designer ships the maps" deployment
    /// mode. The sessions are dropped; the maps load in the given order.
    pub fn with_fact_maps(mut self, fact_maps: Vec<String>) -> Corpus {
        self.sites.clear();
        self.fact_maps = fact_maps;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, EngineConfig, QueryOptions};
    use webbase_webworld::prelude::LatencyModel;

    #[test]
    fn generated_corpus_records_and_plans() {
        use webbase_ur::query::parse_query;
        let gen = GenCorpus::generate(11, 4);
        let web = gen.web(LatencyModel::zero());
        let engine = Engine::build_corpus(web, Corpus::generated(&gen), EngineConfig::default())
            .expect("records");
        assert_eq!(engine.sites().maps().count(), 4);
        let session = engine.isolated_session();
        for spec in &gen.specs {
            let text = spec.exemplar_query();
            let q = parse_query(&text).expect("query parses");
            let plan = engine.planner().plan(&q, &session).expect("plans");
            assert_eq!(
                plan.objects.len(),
                1,
                "{}: disjoint attrs must cover via exactly one site",
                spec.host
            );
            let result = engine
                .query_isolated("t", &text, QueryOptions::default())
                .expect("executes")
                .relation;
            let sub = spec.needs_sub().then(|| spec.exemplar_sub().to_string());
            let oracle = spec.oracle(spec.exemplar_cat(), sub.as_deref());
            assert_eq!(result.len(), oracle.len(), "{}: result size != oracle", spec.host);
        }
    }
}
