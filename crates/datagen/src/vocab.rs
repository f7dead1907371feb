//! Controlled vocabularies used to synthesize names, descriptions and
//! annotations.

use rand::Rng;

/// Protein-function head nouns.
pub const FUNCTION_NOUNS: &[&str] = &[
    "kinase",
    "phosphatase",
    "transporter",
    "receptor",
    "ligase",
    "hydrolase",
    "oxidoreductase",
    "transferase",
    "isomerase",
    "protease",
    "chaperone",
    "polymerase",
    "helicase",
    "nuclease",
    "synthase",
    "dehydrogenase",
    "reductase",
    "carboxylase",
    "permease",
    "channel",
];

/// Function modifiers.
const FUNCTION_MODIFIERS: &[&str] = &[
    "serine/threonine",
    "tyrosine",
    "ATP-dependent",
    "membrane",
    "mitochondrial",
    "nuclear",
    "cytoplasmic",
    "calcium-activated",
    "zinc-binding",
    "DNA-directed",
    "RNA-binding",
    "ubiquitin-like",
    "heat shock",
    "ribosomal",
    "glycolytic",
    "secreted",
    "transmembrane",
    "vesicular",
    "lysosomal",
    "peroxisomal",
];

/// Biological-process phrases for descriptions and ontology terms.
pub const PROCESSES: &[&str] = &[
    "cell cycle regulation",
    "signal transduction",
    "apoptosis",
    "DNA repair",
    "protein folding",
    "lipid metabolism",
    "glucose uptake",
    "ion transport",
    "transcription initiation",
    "mRNA splicing",
    "chromatin remodeling",
    "vesicle trafficking",
    "immune response",
    "oxidative stress response",
    "cell adhesion",
    "cytoskeleton organization",
    "protein degradation",
    "translation elongation",
    "membrane fusion",
    "nucleotide biosynthesis",
];

/// Keyword vocabulary (Swiss-Prot style KW lines).
pub const KEYWORDS: &[&str] = &[
    "Kinase",
    "ATP-binding",
    "Membrane",
    "Transport",
    "Nucleus",
    "Cytoplasm",
    "Metal-binding",
    "Zinc",
    "Phosphoprotein",
    "Glycoprotein",
    "Disease variant",
    "Transferase",
    "Hydrolase",
    "Receptor",
    "Signal",
    "Transmembrane",
    "DNA-binding",
    "RNA-binding",
    "Repeat",
    "Coiled coil",
];

/// Organisms: (scientific name, common name, NCBI-like taxid).
pub const ORGANISMS: &[(&str, &str, i64)] = &[
    ("Homo sapiens", "human", 9606),
    ("Mus musculus", "mouse", 10090),
    ("Rattus norvegicus", "rat", 10116),
    ("Drosophila melanogaster", "fruit fly", 7227),
    ("Caenorhabditis elegans", "nematode", 6239),
    ("Saccharomyces cerevisiae", "baker's yeast", 559292),
    ("Escherichia coli", "bacterium", 83333),
    ("Danio rerio", "zebrafish", 7955),
    ("Arabidopsis thaliana", "thale cress", 3702),
    ("Gallus gallus", "chicken", 9031),
];

/// Experimental methods for structures.
pub const STRUCTURE_METHODS: &[&str] =
    &["X-RAY DIFFRACTION", "SOLUTION NMR", "ELECTRON MICROSCOPY"];

/// Experimental methods for interaction detection.
pub const INTERACTION_METHODS: &[&str] = &[
    "two hybrid",
    "coimmunoprecipitation",
    "pull down",
    "tandem affinity purification",
    "x-ray crystallography",
];

/// Pick a random element of a slice.
pub fn pick<'a, T: ?Sized, R: Rng>(rng: &mut R, items: &'a [&'a T]) -> &'a T {
    items[rng.gen_range(0..items.len())]
}

/// Compose a protein family name: "`<modifier>` `<noun>`".
pub fn family_name<R: Rng>(rng: &mut R) -> String {
    format!(
        "{} {}",
        pick(rng, FUNCTION_MODIFIERS),
        pick(rng, FUNCTION_NOUNS)
    )
}

/// Compose a gene-symbol-like token from a family name and an index, e.g.
/// "STK7" from "serine/threonine kinase".
pub fn gene_symbol(family: &str, index: usize) -> String {
    let letters: String = family
        .split(|c: char| !c.is_ascii_alphabetic())
        .filter(|w| !w.is_empty())
        .map(|w| w.chars().next().unwrap().to_ascii_uppercase())
        .take(3)
        .collect();
    let letters = if letters.is_empty() {
        "GEN".to_string()
    } else {
        letters
    };
    format!("{letters}{}", index + 1)
}

/// Compose a full description sentence for a protein.
pub fn protein_description<R: Rng>(rng: &mut R, family: &str, member_index: usize) -> String {
    format!(
        "{} {} involved in {}",
        family,
        member_index + 1,
        pick(rng, PROCESSES)
    )
}

/// Reword a description, simulating how a second database describes the same
/// object differently (duplicate noise). With probability `noise` the process
/// phrase is swapped for a different one and a qualifier is prepended.
pub fn reword_description<R: Rng>(rng: &mut R, original: &str, noise: f64) -> String {
    if rng.gen_bool(noise.clamp(0.0, 1.0)) {
        let qualifier = ["probable", "putative", "uncharacterized"][rng.gen_range(0..3usize)];
        let head = original
            .split(" involved in ")
            .next()
            .unwrap_or(original)
            .to_string();
        format!(
            "{qualifier} {head} associated with {}",
            pick(rng, PROCESSES)
        )
    } else {
        original.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn family_names_compose_from_vocab() {
        let mut rng = StdRng::seed_from_u64(1);
        let name = family_name(&mut rng);
        assert!(FUNCTION_NOUNS.iter().any(|n| name.ends_with(n)));
        assert!(name.contains(' '));
    }

    #[test]
    fn gene_symbols_are_short_and_indexed() {
        assert_eq!(gene_symbol("serine/threonine kinase", 6), "STK7");
        assert_eq!(gene_symbol("membrane transporter", 0), "MT1");
        assert_eq!(gene_symbol("", 2), "GEN3");
    }

    #[test]
    fn descriptions_mention_family_and_process() {
        let mut rng = StdRng::seed_from_u64(2);
        let d = protein_description(&mut rng, "tyrosine kinase", 0);
        assert!(d.starts_with("tyrosine kinase 1 involved in "));
        assert!(PROCESSES.iter().any(|p| d.ends_with(p)));
    }

    #[test]
    fn rewording_is_identity_without_noise_and_changes_with_noise() {
        let mut rng = StdRng::seed_from_u64(3);
        let original = "tyrosine kinase 1 involved in apoptosis";
        assert_eq!(reword_description(&mut rng, original, 0.0), original);
        let reworded = reword_description(&mut rng, original, 1.0);
        assert_ne!(reworded, original);
        assert!(reworded.contains("tyrosine kinase 1"));
    }

    #[test]
    fn organisms_have_unique_taxids() {
        let mut ids: Vec<i64> = ORGANISMS.iter().map(|(_, _, t)| *t).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), ORGANISMS.len());
    }
}
