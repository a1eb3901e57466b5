//! Extraction quality of the served output: the paper's micro F1 of the
//! records a client received against the pages' ground truth.

use crate::inputs::Inputs;
use crate::load::ServedKey;
use retrozilla::{page_counts, Counts};
use std::collections::{BTreeMap, HashMap};

type Record = BTreeMap<String, Vec<String>>;

/// Records of an XML reply: root → page elements (with a `uri`
/// attribute) → one leaf per value.
fn xml_records(body: &str) -> Option<Vec<(String, Record)>> {
    let root = retroweb_xml::parse_xml(body).ok()?;
    let mut out = Vec::new();
    for page in root.elements() {
        let mut record = Record::new();
        for leaf in page.elements() {
            record.entry(leaf.name.clone()).or_default().push(leaf.text_content());
        }
        out.push((page.attr("uri")?.to_string(), record));
    }
    Some(out)
}

/// Records of an NDJSON reply: its `page` lines.
fn ndjson_records(body: &str) -> Option<Vec<(String, Record)>> {
    let mut out = Vec::new();
    for line in body.lines() {
        let json = retroweb_json::parse(line).ok()?;
        if json.get("type")?.as_str()? != "page" {
            continue;
        }
        let mut record = Record::new();
        for (name, values) in json.get("values")?.as_object()? {
            let values = values.as_array()?.iter().map(|v| v.as_str().map(str::to_string));
            record.insert(name.clone(), values.collect::<Option<Vec<_>>>()?);
        }
        out.push((json.get("uri")?.as_str()?.to_string(), record));
    }
    Some(out)
}

/// Counts of the served records and of the in-process extraction over
/// the same distinct pages.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Quality {
    pub pages: usize,
    pub served: Counts,
    pub in_process: Counts,
    /// Served bodies that could not be read back as records.
    pub unreadable: usize,
}

impl Quality {
    pub fn f1(&self) -> f64 {
        self.served.prf().f1
    }

    pub fn in_process_f1(&self) -> f64 {
        self.in_process.prf().f1
    }
}

/// Score the first served body of every distinct request. Each page
/// counts once, however many replies carried it.
pub fn score(inputs: &Inputs, served: &HashMap<ServedKey, Vec<u8>>) -> Quality {
    let mut quality = Quality::default();
    let uri_index: Vec<HashMap<&str, usize>> = inputs
        .families
        .iter()
        .map(|f| f.pages.iter().enumerate().map(|(i, p)| (p.url.as_str(), i)).collect())
        .collect();
    let mut keys: Vec<&ServedKey> = served.keys().collect();
    keys.sort();
    let mut seen = std::collections::HashSet::new();
    for key in keys {
        let &(batch, a, b) = key;
        let (family, ndjson) =
            if batch { (inputs.batches[a as usize].family, b == 1) } else { (a as usize, false) };
        let records = std::str::from_utf8(&served[key]).ok().and_then(|body| {
            if ndjson {
                ndjson_records(body)
            } else {
                xml_records(body)
            }
        });
        let Some(records) = records else {
            quality.unreadable += 1;
            continue;
        };
        let fam = &inputs.families[family];
        for (uri, record) in records {
            let Some(&page) = uri_index[family].get(uri.as_str()) else {
                quality.unreadable += 1;
                continue;
            };
            if !seen.insert((family, page)) {
                continue;
            }
            let truth = &fam.pages[page].truth;
            quality.pages += 1;
            quality.served.add(page_counts(&record, truth, &fam.components, false));
            quality.in_process.add(page_counts(&fam.values[page], truth, &fam.components, false));
        }
    }
    quality
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_both_reply_formats() {
        let xml = "<?xml version=\"1.0\" encoding=\"ISO-8859-1\"?>\n<c>\n  <page uri=\"u1\">\n    \
                   <title>A &amp; B</title>\n    <actor>x</actor>\n    <actor>y</actor>\n  </page>\n</c>\n";
        let records = xml_records(xml).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].0, "u1");
        assert_eq!(records[0].1["title"], vec!["A & B".to_string()]);
        assert_eq!(records[0].1["actor"].len(), 2);
        let nd = "{\"type\":\"page\",\"uri\":\"u1\",\"values\":{\"title\":[\"A\"]}}\n\
                  {\"type\":\"summary\",\"cluster\":\"c\",\"pages\":1,\"failures\":0}\n";
        let records = ndjson_records(nd).unwrap();
        assert_eq!(
            records,
            vec![("u1".to_string(), Record::from([("title".to_string(), vec!["A".to_string()])]))]
        );
    }
}
