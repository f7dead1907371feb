//! The serve workload's read mix: every key a client can ask for, drawn
//! Zipf-skewed, executed through `Server` or directly on a `Warehouse`.

use crate::common::Rng;
use aladin::core::access::QuerySpec;
use aladin::core::{AladinResult, ObjectRef, Server, Warehouse};
use aladin::datagen::World;
use std::collections::{BTreeMap, BTreeSet};

/// Zipf exponent of key popularity.
const ZIPF_S: f64 = 0.9;
/// Objects per page of a paged scan.
const PAGE: usize = 25;
/// Hits per keyword search.
const TOP_K: usize = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    Fetch,
    View,
    Follow,
    Search,
    Sql,
    Scan,
    Join,
}

#[derive(Debug, Clone)]
pub enum Read {
    /// Accession fetch, link-following fetch or paged scan.
    Spec(Kind, QuerySpec),
    View(ObjectRef),
    Sql {
        source: String,
        text: String,
    },
    Search(String),
    Join {
        source: String,
        table: String,
    },
}

impl Read {
    pub fn kind(&self) -> Kind {
        match self {
            Read::Spec(kind, _) => *kind,
            Read::View(_) => Kind::View,
            Read::Sql { .. } => Kind::Sql,
            Read::Search(_) => Kind::Search,
            Read::Join { .. } => Kind::Join,
        }
    }
}

/// Every distinct read over a warehouse, most popular first.
pub struct Mix {
    pub reads: Vec<Read>,
    cdf: Vec<f64>,
}

impl Mix {
    /// Per primary object: accession fetch, `view`, link-following fetch and
    /// an SQL point select; plus one keyword search per description word of
    /// the world, every page of a paged scan per source, and `join_path` to
    /// every secondary table.
    pub fn build(w: &Warehouse, world: &World, seed: u64) -> AladinResult<Mix> {
        let mut reads = Vec::new();
        for source in w.source_names() {
            let objects = w.aladin().objects_of(source)?;
            let structure = w.metadata().structure(source);
            for object in &objects {
                let spec = QuerySpec::accession(&object.source, &object.accession);
                reads.push(Read::Spec(Kind::Fetch, spec.clone()));
                reads.push(Read::View(object.clone()));
                reads.push(Read::Spec(Kind::Follow, spec.follow_links(None, 1)));
                let column = structure.and_then(|s| {
                    s.primary_relations
                        .iter()
                        .find(|p| p.table == object.table)
                        .map(|p| p.accession_column.clone())
                });
                if let Some(column) = column {
                    reads.push(Read::Sql {
                        source: source.to_string(),
                        text: format!(
                            "SELECT * FROM {} WHERE {column} = '{}'",
                            object.table, object.accession
                        ),
                    });
                }
            }
            for page in 0..objects.len().div_ceil(PAGE) {
                let spec = QuerySpec::scan()
                    .from_source(source)
                    .offset(page * PAGE)
                    .limit(PAGE);
                reads.push(Read::Spec(Kind::Scan, spec));
            }
            for secondary in structure.map_or(&[][..], |s| &s.secondary_relations[..]) {
                reads.push(Read::Join {
                    source: source.to_string(),
                    table: secondary.table.clone(),
                });
            }
        }
        let words: BTreeSet<String> = world
            .proteins
            .iter()
            .flat_map(|p| p.description.split_whitespace())
            .map(|w| {
                w.trim_matches(|c: char| !c.is_alphanumeric())
                    .to_lowercase()
            })
            .filter(|w| w.len() >= 5 && w.chars().all(char::is_alphabetic))
            .collect();
        reads.extend(words.into_iter().map(Read::Search));

        // The seed draws which read of each kind is how popular; the kinds
        // are spread evenly over the popularity ranks, so the hot reads of
        // every seed mix the kinds alike.
        let mut rng = Rng::new(seed, 0x5EED_0001);
        let mut by_kind: BTreeMap<Kind, Vec<Read>> = BTreeMap::new();
        for read in reads {
            by_kind.entry(read.kind()).or_default().push(read);
        }
        let mut ranked = Vec::new();
        for (kind, mut list) in by_kind {
            rng.shuffle(&mut list);
            let n = list.len() as f64;
            for (i, read) in list.into_iter().enumerate() {
                ranked.push(((i as f64 + 0.5) / n, kind, read));
            }
        }
        ranked.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let reads: Vec<Read> = ranked.into_iter().map(|(_, _, read)| read).collect();
        let mut cdf = Vec::with_capacity(reads.len());
        let mut total = 0.0;
        for rank in 0..reads.len() {
            total += 1.0 / ((rank + 1) as f64).powf(ZIPF_S);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Ok(Mix { reads, cdf })
    }

    /// A Zipf-distributed read.
    pub fn pick(&self, rng: &mut Rng) -> &Read {
        let u = rng.unit();
        let i = self.cdf.partition_point(|c| *c < u);
        &self.reads[i.min(self.reads.len() - 1)]
    }
}

/// Issue a read through the server's cache; only success matters.
pub fn on_server(server: &Server, read: &Read) -> AladinResult<()> {
    answer_server(server, read, false).map(drop)
}

/// The server's answer, rendered with `Debug` when `render` is set.
pub fn answer_server(server: &Server, read: &Read, render: bool) -> AladinResult<String> {
    let show = |s: &dyn std::fmt::Debug| {
        if render {
            format!("{s:?}")
        } else {
            String::new()
        }
    };
    Ok(match read {
        Read::Spec(_, spec) => show(&server.fetch(spec)?),
        Read::View(object) => show(&server.view(object)?),
        Read::Sql { source, text } => show(&server.sql(source, text)?),
        Read::Search(query) => show(&server.search(query, TOP_K)?),
        Read::Join { source, table } => show(&server.join_path(source, table)?),
    })
}

/// The same read executed directly on a warehouse, rendered with `Debug`
/// when `render` is set.
pub fn answer_direct(w: &Warehouse, read: &Read, render: bool) -> AladinResult<String> {
    let show = |s: &dyn std::fmt::Debug| {
        if render {
            format!("{s:?}")
        } else {
            String::new()
        }
    };
    Ok(match read {
        Read::Spec(_, spec) => show(&w.query(spec.clone()).fetch()?),
        Read::View(object) => show(&w.view(object)?),
        Read::Sql { source, text } => show(&w.sql(source, text)?),
        Read::Search(query) => show(&w.search_hits(query, TOP_K)?),
        Read::Join { source, table } => show(&w.join_path(source, table)?),
    })
}
