//! Seeded inputs: pages with ground truth, the rules built for them, the
//! request streams each client sends, and the body the server must send
//! back for every request.

use retroweb_json::Json;
use retroweb_sitegen::{movie, news, products, MovieSiteSpec, NewsSiteSpec, Page, ProductSiteSpec};
use retrozilla::{
    build_rules, extract_cluster_compiled, extract_cluster_parallel_compiled_to,
    extract_page_compiled, sample_from_pages, ClusterRules, ComponentName, Format, JsonLinesSink,
    MappingRule, Multiplicity, Optionality, ScenarioConfig, SimulatedUser, XmlWriterSink,
};
use std::collections::BTreeMap;

/// Cluster name used while computing expected bodies; every served body
/// is compared with the real cluster name spliced in its place.
pub const PLACEHOLDER: &str = "servebench-cluster-placeholder";

/// Page elements of the two rule versions a `PUT` alternates between.
pub const PAGE_ELEMENTS: [&str; 2] = ["page", "record"];

/// Pages per `catalog-batch` request.
pub const BATCH_PAGES: usize = 64;

/// `rule-churn`: every this many operations of a client is a `PUT`.
pub const PUT_EVERY: u64 = 16;

/// `rule-churn`: renamed copies of each built cluster.
pub const CHURN_COPIES: usize = 100;

/// Which traffic mix a run drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Detail,
    CatalogBatch,
    RuleChurn,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "detail" => Some(Kind::Detail),
            "catalog-batch" => Some(Kind::CatalogBatch),
            "rule-churn" => Some(Kind::RuleChurn),
            _ => None,
        }
    }
}

/// Deterministic splitmix64 stream.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }

    pub fn chance(&mut self, p: f64) -> bool {
        ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64) < p
    }
}

/// A served body known in advance, split where the cluster name goes.
#[derive(Clone, Debug)]
pub struct Template {
    parts: Vec<Vec<u8>>,
}

impl Template {
    pub fn new(body: &str) -> Template {
        Template { parts: body.split(PLACEHOLDER).map(|p| p.as_bytes().to_vec()).collect() }
    }

    /// Does `body` equal this template with `name` as the cluster name?
    pub fn matches(&self, body: &[u8], name: &str) -> bool {
        let mut rest = body;
        for (i, part) in self.parts.iter().enumerate() {
            if i > 0 {
                let Some(tail) = rest.strip_prefix(name.as_bytes()) else { return false };
                rest = tail;
            }
            let Some(tail) = rest.strip_prefix(part.as_slice()) else { return false };
            rest = tail;
        }
        rest.is_empty()
    }
}

/// One cluster family: its pages, the targeted components and the rules
/// built for them, in both versions.
pub struct Family {
    pub name: &'static str,
    pub components: Vec<&'static str>,
    pub pages: Vec<Page>,
    /// Rule versions 0 and 1 (differing only in the page element), named
    /// [`PLACEHOLDER`].
    pub rules: [ClusterRules; 2],
    /// In-process extraction of every page (values are the same in both
    /// versions): the reference the served F1 is compared with.
    pub values: Vec<BTreeMap<String, Vec<String>>>,
    /// Expected single-page reply per page and version.
    pub single: Vec<[Template; 2]>,
    /// Steps shared / total steps in the fused plan.
    pub shared_step_ratio: f64,
}

impl Family {
    fn new(
        name: &'static str,
        components: &[&'static str],
        pages: Vec<Page>,
        rules: Vec<MappingRule>,
        single: bool,
    ) -> Family {
        let versions = PAGE_ELEMENTS.map(|element| {
            let mut c = ClusterRules::new(PLACEHOLDER, element);
            c.rules = rules.clone();
            c
        });
        let compiled = [versions[0].compile(), versions[1].compile()];
        let stats = compiled[0].fused().stats();
        let mut values = Vec::with_capacity(pages.len());
        let mut expected = Vec::new();
        for page in &pages {
            let doc = retroweb_html::parse(&page.html);
            values.push(extract_page_compiled(&compiled[0], &page.url, &doc, &mut Vec::new()));
            if single {
                // What the single-page handler replies: the one-page cluster
                // document, indented by two.
                let parsed = [(page.url.clone(), doc)];
                expected.push(compiled.each_ref().map(|c| {
                    Template::new(&extract_cluster_compiled(c, &parsed).xml.to_string_with(2))
                }));
            }
        }
        Family {
            name,
            components: components.to_vec(),
            pages,
            rules: versions,
            values,
            single: expected,
            shared_step_ratio: stats.steps_shared as f64 / stats.steps_total.max(1) as f64,
        }
    }

    /// Version `version` of the rules under the cluster name `name`.
    pub fn named(&self, name: &str, version: u8) -> ClusterRules {
        let mut rules = self.rules[version as usize].clone();
        rules.cluster = name.to_string();
        rules
    }

    pub fn page_bytes(&self) -> impl Iterator<Item = usize> + '_ {
        self.pages.iter().map(|p| p.html.len())
    }
}

/// One served cluster: a name and the family whose rules it carries.
pub struct Cluster {
    pub name: String,
    pub family: usize,
}

/// One `catalog-batch` request body and its expected replies.
pub struct Batch {
    pub family: usize,
    pub body: Vec<u8>,
    /// Expected reply per version, then XML (0) or NDJSON (1).
    pub expected: [[Template; 2]; 2],
}

/// Everything one workload sends and expects.
pub struct Inputs {
    pub families: Vec<Family>,
    pub clusters: Vec<Cluster>,
    pub batches: Vec<Batch>,
    /// Batch indexes per family.
    pub batches_of: Vec<Vec<usize>>,
}

/// Targeted components of the three sitegen families: the data the
/// paper's user points at.
const MOVIE_TARGETS: &[&str] = &["title", "runtime", "country", "genre", "actor"];
const PRODUCT_TARGETS: &[&str] = &["name", "price", "sku", "feature"];
const NEWS_TARGETS: &[&str] = &["headline", "date", "paragraph", "comment"];

/// Pages the simulated user builds rules on (the working sample).
const SAMPLE_PAGES: usize = 6;

/// The detail page's fact table: label and component, one label-anchored
/// rule each.
const DETAIL_FACTS: [(&str, &str); 16] = [
    ("Director", "director"),
    ("Producer", "producer"),
    ("Studio", "studio"),
    ("Country", "country"),
    ("Language", "language"),
    ("Runtime", "runtime"),
    ("Released", "released"),
    ("Budget", "budget"),
    ("Gross", "gross"),
    ("Rating", "rating"),
    ("Genre", "genre"),
    ("Format", "format"),
    ("Colour", "colour"),
    ("Sound", "sound"),
    ("Aspect", "aspect"),
    ("Certificate", "certificate"),
];

const WORDS: &[&str] = &[
    "amber", "basalt", "cedar", "delta", "ember", "fjord", "granite", "harbor", "indigo",
    "juniper", "kestrel", "lagoon", "meadow", "nimbus", "orchid", "prairie", "quartz", "raven",
    "sierra", "tundra", "umber", "valley", "willow", "yarrow", "zephyr",
];

fn words(rng: &mut Rng, n: usize) -> String {
    (0..n).map(|_| WORDS[rng.below(WORDS.len())]).collect::<Vec<_>>().join(" ")
}

/// A ~22 KB detail page: a label/value fact table buried in navigation,
/// related-item lists and footer boilerplate.
fn detail_page(rng: &mut Rng, index: usize) -> Page {
    let url = format!("http://detail.example/item/{index}");
    let mut page = Page::new(url, String::new(), "detail");
    let mut html = format!("<html><body><h1>{} {index}</h1><div>", words(rng, 2));
    for i in 0..rng.range(190, 240) {
        html.push_str(&format!(
            "<p>nav {i} {} <span>{}</span> <em>x</em> <a>link</a></p>",
            words(rng, 1),
            words(rng, 1)
        ));
    }
    html.push_str("</div><table>");
    for (label, component) in DETAIL_FACTS {
        if rng.chance(0.1) {
            continue;
        }
        let n = rng.range(1, 3);
        let value = format!("{} {}", words(rng, n), rng.below(10_000));
        html.push_str(&format!("<tr><td><b>{label}:</b></td><td>{value}</td></tr>"));
        page.expect(component, &value);
    }
    html.push_str("</table><ul>");
    for i in 0..rng.range(70, 100) {
        html.push_str(&format!("<li>item {i} {} <span>tag</span></li>", words(rng, 1)));
    }
    html.push_str("</ul><div>");
    for i in 0..rng.range(70, 100) {
        html.push_str(&format!("<p>footer {i} {} with <b>markup</b></p>", words(rng, 2)));
    }
    html.push_str("</div></body></html>");
    page.html = html;
    page
}

fn detail_rules() -> Vec<MappingRule> {
    DETAIL_FACTS
        .iter()
        .map(|(label, component)| {
            let location = format!(
                "//TD/text()[preceding::text()[normalize-space(.) != \"\"][1]\
                 [contains(normalize-space(.), \"{label}:\")]]"
            );
            MappingRule {
                name: ComponentName::new(component).expect("valid name"),
                optionality: Optionality::Optional,
                multiplicity: Multiplicity::SingleValued,
                format: Format::Text,
                locations: vec![retroweb_xpath::parse(&location).expect("valid location")],
                post: vec![],
            }
        })
        .collect()
}

/// Seed of the sites the working samples come from. Each family's rules
/// are built once, on a fixed sample, as a site's owner would build them;
/// every benchmark seed then serves those rules over other pages of the
/// same site template.
const SAMPLE_SEED: u64 = 1;

/// Build rules the paper's way: the simulated user points at instances
/// on the working sample, and each candidate is checked and refined.
fn built_family(
    name: &'static str,
    components: &'static [&'static str],
    sample: Vec<Page>,
    pages: Vec<Page>,
    single: bool,
) -> Family {
    let sample = sample_from_pages(sample);
    let reports =
        build_rules(components, &sample, &mut SimulatedUser::new(), &ScenarioConfig::default());
    let rules = reports.into_iter().map(|r| r.rule).collect();
    Family::new(name, components, pages, rules, single)
}

fn sitegen_families(seed: u64, pages: usize, single: bool) -> Vec<Family> {
    let movies =
        |seed, n_pages| movie::generate(&MovieSiteSpec { n_pages, seed, ..Default::default() });
    let shop = |seed, n_pages| {
        products::generate(&ProductSiteSpec { n_pages, seed, ..Default::default() })
    };
    let press =
        |seed, n_pages| news::generate(&NewsSiteSpec { n_pages, seed, ..Default::default() });
    let base = 1000 + seed.wrapping_mul(3);
    vec![
        built_family(
            "movie",
            MOVIE_TARGETS,
            movies(SAMPLE_SEED, SAMPLE_PAGES).pages,
            movies(base, pages).pages,
            single,
        ),
        built_family(
            "product",
            PRODUCT_TARGETS,
            shop(SAMPLE_SEED, SAMPLE_PAGES).pages,
            shop(base + 1, pages).pages,
            single,
        ),
        built_family(
            "news",
            NEWS_TARGETS,
            press(SAMPLE_SEED, SAMPLE_PAGES).pages,
            press(base + 2, pages).pages,
            single,
        ),
    ]
}

fn batch(family: &Family, index: usize, pages: Vec<usize>) -> Batch {
    let items: Vec<Json> = pages
        .iter()
        .map(|&p| {
            let page = &family.pages[p];
            Json::object(vec![
                ("uri".into(), Json::from(page.url.as_str())),
                ("html".into(), Json::from(page.html.as_str())),
            ])
        })
        .collect();
    let list: Vec<(String, String)> = pages
        .iter()
        .map(|&p| (family.pages[p].url.clone(), family.pages[p].html.clone()))
        .collect();
    let expected = family.rules.each_ref().map(|rules| {
        let compiled = rules.compile();
        let mut xml = XmlWriterSink::new(Vec::new());
        extract_cluster_parallel_compiled_to(&compiled, &list, 1, &mut xml)
            .expect("in-memory sink");
        let mut ndjson = JsonLinesSink::new(Vec::new());
        extract_cluster_parallel_compiled_to(&compiled, &list, 1, &mut ndjson)
            .expect("in-memory sink");
        [xml.into_inner(), ndjson.into_inner()]
            .map(|body| Template::new(std::str::from_utf8(&body).expect("UTF-8 output")))
    });
    Batch { family: index, body: Json::Array(items).to_string_compact().into_bytes(), expected }
}

impl Inputs {
    /// Generate a workload's inputs from `seed`, build its rules and
    /// compute every expected reply.
    pub fn generate(kind: Kind, seed: u64) -> Inputs {
        let mut rng = Rng::new(seed);
        match kind {
            Kind::Detail => {
                let pages = (0..64).map(|i| detail_page(&mut rng, i)).collect();
                let components: Vec<&'static str> = DETAIL_FACTS.iter().map(|f| f.1).collect();
                let family = Family::new("detail", &components, pages, detail_rules(), true);
                Inputs {
                    families: vec![family],
                    clusters: vec![Cluster { name: "detail".into(), family: 0 }],
                    batches: Vec::new(),
                    batches_of: vec![Vec::new()],
                }
            }
            Kind::CatalogBatch => {
                let families = sitegen_families(seed, 128, false);
                let mut batches = Vec::new();
                let mut batches_of = vec![Vec::new(); families.len()];
                for (f, family) in families.iter().enumerate() {
                    for _ in 0..8 {
                        let mut pool: Vec<usize> = (0..family.pages.len()).collect();
                        let mut pick = Vec::with_capacity(BATCH_PAGES);
                        for _ in 0..BATCH_PAGES {
                            pick.push(pool.swap_remove(rng.below(pool.len())));
                        }
                        batches_of[f].push(batches.len());
                        batches.push(batch(family, f, pick));
                    }
                }
                let clusters = families
                    .iter()
                    .enumerate()
                    .map(|(f, fam)| Cluster { name: format!("catalog-{}", fam.name), family: f })
                    .collect();
                Inputs { families, clusters, batches, batches_of }
            }
            Kind::RuleChurn => {
                let families = sitegen_families(seed, 58, true);
                let mut clusters = Vec::new();
                for copy in 0..CHURN_COPIES {
                    for (f, fam) in families.iter().enumerate() {
                        clusters
                            .push(Cluster { name: format!("{}-{copy:03}", fam.name), family: f });
                    }
                }
                let batches_of = vec![Vec::new(); families.len()];
                Inputs { families, clusters, batches: Vec::new(), batches_of }
            }
        }
    }

    /// Rules per cluster, by family.
    pub fn rules_per_cluster(&self) -> Vec<(&'static str, usize)> {
        self.families.iter().map(|f| (f.name, f.rules[0].rules.len())).collect()
    }

    /// Fused-plan sharing over the served clusters.
    pub fn shared_step_ratio(&self) -> f64 {
        let sum: f64 =
            self.clusters.iter().map(|c| self.families[c.family].shared_step_ratio).sum();
        sum / self.clusters.len() as f64
    }
}

/// One request a client sends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// `POST /extract/{c}` with one page.
    Extract { cluster: u32, page: u32 },
    /// `POST /extract/{c}/batch`, XML or NDJSON.
    Batch { cluster: u32, batch: u32, ndjson: bool },
    /// `PUT /clusters/{c}` with the other rule version.
    Put { cluster: u32 },
}

/// A client's request sequence: deterministic from the seed and the
/// client's index. `reload` marks the extract sent right after a `PUT`.
pub struct OpStream {
    kind: Kind,
    rng: Rng,
    client: usize,
    clients: usize,
    count: u64,
    /// Batch requests sent; their formats alternate XML / NDJSON.
    batches: u64,
    pending_reload: Option<u32>,
    /// Probe mode: alternate `PUT` and reload, nothing else.
    probe: bool,
}

impl OpStream {
    pub fn new(kind: Kind, seed: u64, client: usize, clients: usize) -> OpStream {
        OpStream {
            kind,
            rng: Rng::new(seed.wrapping_mul(1_000_003).wrapping_add(client as u64 + 1)),
            client,
            clients,
            count: 0,
            batches: 0,
            pending_reload: None,
            probe: false,
        }
    }

    /// The rule-maintenance probe: `PUT` then reload, over and over.
    pub fn probe(kind: Kind, seed: u64) -> OpStream {
        OpStream { probe: true, ..OpStream::new(kind, seed ^ 0x5EED, 0, 1) }
    }

    /// A cluster for the next request. Where the stream sends `PUT`s, a
    /// client keeps to its own share of the clusters, so no two clients
    /// race on a cluster's rule version.
    fn pick_cluster(&mut self, inputs: &Inputs) -> u32 {
        let n = inputs.clusters.len();
        if self.kind != Kind::RuleChurn {
            return self.rng.below(n) as u32;
        }
        let own = (n - self.client).div_ceil(self.clients);
        (self.client + self.clients * self.rng.below(own)) as u32
    }

    fn extract_on(&mut self, inputs: &Inputs, cluster: u32) -> Op {
        let family = &inputs.families[inputs.clusters[cluster as usize].family];
        match self.kind {
            Kind::CatalogBatch => {
                let of = &inputs.batches_of[inputs.clusters[cluster as usize].family];
                let batch = of[self.rng.below(of.len())] as u32;
                self.batches += 1;
                Op::Batch { cluster, batch, ndjson: self.batches.is_multiple_of(2) }
            }
            _ => Op::Extract { cluster, page: self.rng.below(family.pages.len()) as u32 },
        }
    }

    /// The next request, and whether it is the reload after a `PUT`.
    pub fn next(&mut self, inputs: &Inputs) -> (Op, bool) {
        self.count += 1;
        if let Some(cluster) = self.pending_reload.take() {
            return (self.extract_on(inputs, cluster), true);
        }
        let put = if self.probe {
            true
        } else {
            self.kind == Kind::RuleChurn && self.count.is_multiple_of(PUT_EVERY)
        };
        let cluster = match self.kind {
            // Rotate over the three clusters.
            Kind::CatalogBatch if !self.probe => {
                let n = inputs.clusters.len();
                ((self.count as usize + self.client) % n) as u32
            }
            Kind::CatalogBatch => (self.count / 2 % inputs.clusters.len() as u64) as u32,
            _ => self.pick_cluster(inputs),
        };
        if put {
            self.pending_reload = Some(cluster);
            return (Op::Put { cluster }, false);
        }
        (self.extract_on(inputs, cluster), false)
    }
}

/// Build an HTTP/1.1 request the way a plain client sends it.
pub fn request_bytes(
    out: &mut Vec<u8>,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &[u8],
) {
    out.clear();
    out.extend_from_slice(format!("{method} {path} HTTP/1.1\r\nhost: bench\r\n").as_bytes());
    for (name, value) in headers {
        out.extend_from_slice(format!("{name}: {value}\r\n").as_bytes());
    }
    out.extend_from_slice(format!("content-length: {}\r\n\r\n", body.len()).as_bytes());
    out.extend_from_slice(body);
}

/// The wire request for `op`, given the cluster's rule version the
/// request should run against (the version a `PUT` installs).
pub fn encode_op(out: &mut Vec<u8>, inputs: &Inputs, op: Op, version: u8) {
    match op {
        Op::Extract { cluster, page } => {
            let c = &inputs.clusters[cluster as usize];
            let page = &inputs.families[c.family].pages[page as usize];
            let path = format!("/extract/{}", c.name);
            request_bytes(out, "POST", &path, &[("x-page-uri", &page.url)], page.html.as_bytes());
        }
        Op::Batch { cluster, batch, ndjson } => {
            let c = &inputs.clusters[cluster as usize];
            let path = format!("/extract/{}/batch", c.name);
            let accept: &[(&str, &str)] =
                if ndjson { &[("accept", "application/x-ndjson")] } else { &[] };
            request_bytes(out, "POST", &path, accept, &inputs.batches[batch as usize].body);
        }
        Op::Put { cluster } => {
            let c = &inputs.clusters[cluster as usize];
            let body =
                inputs.families[c.family].named(&c.name, version).to_json().to_string_compact();
            request_bytes(out, "PUT", &format!("/clusters/{}", c.name), &[], body.as_bytes());
        }
    }
}

/// The reply body an extract must carry under rule version `version`.
pub fn expected(inputs: &Inputs, op: Op, version: u8) -> Option<&Template> {
    match op {
        Op::Extract { cluster, page } => {
            let family = &inputs.families[inputs.clusters[cluster as usize].family];
            Some(&family.single[page as usize][version as usize])
        }
        Op::Batch { batch, ndjson, .. } => {
            Some(&inputs.batches[batch as usize].expected[version as usize][ndjson as usize])
        }
        Op::Put { .. } => None,
    }
}

/// Pages an operation extracts.
pub fn pages_of(op: Op) -> u64 {
    match op {
        Op::Extract { .. } => 1,
        Op::Batch { .. } => BATCH_PAGES as u64,
        Op::Put { .. } => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn template_splices_the_cluster_name() {
        let t = Template::new(&format!("<{PLACEHOLDER}><p/></{PLACEHOLDER}>"));
        assert!(t.matches(b"<movie-001><p/></movie-001>", "movie-001"));
        assert!(!t.matches(b"<movie-001><p/></movie-002>", "movie-001"));
        assert!(!t.matches(b"<movie-001><p/></movie-001>x", "movie-001"));
        assert!(!t.matches(b"<movie-001><p/>", "movie-001"));
    }

    #[test]
    fn streams_repeat_for_a_seed_and_stay_in_their_share() {
        let inputs = Inputs::generate(Kind::RuleChurn, 3);
        let run = |client| {
            let mut s = OpStream::new(Kind::RuleChurn, 3, client, 2);
            (0..200).map(|_| s.next(&inputs)).collect::<Vec<_>>()
        };
        assert_eq!(run(1), run(1));
        for (op, _) in run(1) {
            let cluster = match op {
                Op::Extract { cluster, .. } | Op::Put { cluster } => cluster,
                Op::Batch { .. } => unreachable!("no batches in rule-churn"),
            };
            assert_eq!(cluster % 2, 1, "client 1 owns the odd clusters");
        }
        let puts = run(0).iter().filter(|(op, _)| matches!(op, Op::Put { .. })).count();
        assert_eq!(puts as u64, 200 / PUT_EVERY);
    }
}
