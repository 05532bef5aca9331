//! The Table I host registry: the 19 machines of the paper's measurement
//! study, with their domains, operating systems, and the per-OS TCP quirks
//! §III/§IV corrects for.

use serde::{Deserialize, Serialize};
use tcp_sim::Quirks;

/// Operating systems appearing in Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Os {
    /// SGI Irix 6.2 — §IV observes its exponential backoff caps at `2^5`.
    Irix,
    /// Linux 2.0.x — §III: "TD events occur after getting only two duplicate
    /// ACKs instead of three".
    Linux,
    /// SunOS 4.1.x — §IV notes ref \[15\]'s observation that its TCP derives from
    /// Tahoe, not Reno (we keep Reno, as the paper's model does).
    SunOs4,
    /// SunOS 5.x / Solaris.
    Solaris,
    /// Windows 95.
    Win95,
    /// HP-UX.
    HpUx,
}

impl Os {
    /// The per-OS TCP quirk knobs ([`tcp_sim::Quirks`]), which the
    /// testbed copies into each sender's config. This is the single place
    /// the testbed branches on host identity: the per-packet path reads
    /// the knobs from its config, never from the OS.
    pub fn quirks(self) -> Quirks {
        Quirks {
            dupthresh: match self {
                // §III: Linux fires fast retransmit after only two dupacks.
                Os::Linux => 2,
                _ => 3,
            },
            backoff_cap_exp: match self {
                // §IV: Irix caps exponential backoff at 2^5.
                Os::Irix => 5,
                _ => 6,
            },
        }
    }

    /// Duplicate-ACK threshold for fast retransmit on this OS.
    pub fn dupack_threshold(self) -> u32 {
        self.quirks().dupthresh
    }

    /// Exponential-backoff cap exponent (RTO multiplier `2^cap`).
    pub fn backoff_cap_exp(self) -> u32 {
        self.quirks().backoff_cap_exp
    }

    /// Display name as Table I prints it.
    pub fn label(self) -> &'static str {
        match self {
            Os::Irix => "Irix 6.2",
            Os::Linux => "Linux",
            Os::SunOs4 => "SunOS 4.1.x",
            Os::Solaris => "SunOS 5.x / Solaris",
            Os::Win95 => "win95",
            Os::HpUx => "HP-UX",
        }
    }
}

/// One Table I host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Host {
    /// Short host name (Table I "Receiver" column).
    pub name: &'static str,
    /// DNS domain.
    pub domain: &'static str,
    /// Operating system.
    pub os: Os,
}

/// The Table I registry, in the paper's row order.
pub const HOSTS: &[Host] = &[
    Host {
        name: "ada",
        domain: "hofstra.edu",
        os: Os::Irix,
    },
    Host {
        name: "afer",
        domain: "cs.umn.edu",
        os: Os::Linux,
    },
    Host {
        name: "al",
        domain: "cs.wm.edu",
        os: Os::Linux,
    },
    Host {
        name: "alps",
        domain: "cc.gatech.edu",
        os: Os::SunOs4,
    },
    Host {
        name: "babel",
        domain: "cs.umass.edu",
        os: Os::Solaris,
    },
    Host {
        name: "baskerville",
        domain: "cs.arizona.edu",
        os: Os::Solaris,
    },
    Host {
        name: "ganef",
        domain: "cs.ucla.edu",
        os: Os::Solaris,
    },
    Host {
        name: "imagine",
        domain: "cs.umass.edu",
        os: Os::Win95,
    },
    Host {
        name: "manic",
        domain: "cs.umass.edu",
        os: Os::Irix,
    },
    Host {
        name: "mafalda",
        domain: "inria.fr",
        os: Os::Solaris,
    },
    Host {
        name: "maria",
        domain: "wustl.edu",
        os: Os::SunOs4,
    },
    Host {
        name: "modi4",
        domain: "ncsa.uiuc.edu",
        os: Os::Irix,
    },
    Host {
        name: "pif",
        domain: "inria.fr",
        os: Os::Solaris,
    },
    Host {
        name: "pong",
        domain: "usc.edu",
        os: Os::HpUx,
    },
    Host {
        name: "spiff",
        domain: "sics.se",
        os: Os::SunOs4,
    },
    Host {
        name: "sutton",
        domain: "cs.columbia.edu",
        os: Os::Solaris,
    },
    Host {
        name: "tove",
        domain: "cs.umd.edu",
        os: Os::SunOs4,
    },
    Host {
        name: "void",
        domain: "cs.umass.edu",
        os: Os::Linux,
    },
    Host {
        name: "att",
        domain: "att.com",
        os: Os::Linux,
    },
];

/// Looks up a host by name.
pub fn host(name: &str) -> Option<&'static Host> {
    HOSTS.iter().find(|h| h.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_all_nineteen_hosts() {
        assert_eq!(HOSTS.len(), 19);
        let names: std::collections::HashSet<_> = HOSTS.iter().map(|h| h.name).collect();
        assert_eq!(names.len(), 19, "host names must be unique");
    }

    #[test]
    fn lookup_by_name() {
        let manic = host("manic").unwrap();
        assert_eq!(manic.domain, "cs.umass.edu");
        assert_eq!(manic.os, Os::Irix);
        assert!(host("nonexistent").is_none());
    }

    #[test]
    fn linux_quirk_dupthresh_two() {
        assert_eq!(host("void").unwrap().os.dupack_threshold(), 2);
        assert_eq!(host("manic").unwrap().os.dupack_threshold(), 3);
    }

    #[test]
    fn irix_quirk_backoff_cap() {
        assert_eq!(host("manic").unwrap().os.backoff_cap_exp(), 5);
        assert_eq!(host("void").unwrap().os.backoff_cap_exp(), 6);
        assert_eq!(host("babel").unwrap().os.backoff_cap_exp(), 6);
    }

    #[test]
    fn quirks_pin_table_ii_hosts() {
        // The quirk knobs for the Table II senders are exactly what the
        // per-knob accessors report, so host results computed from
        // `Quirks` cannot drift.
        for h in HOSTS {
            let q = h.os.quirks();
            assert_eq!(q.dupthresh, h.os.dupack_threshold(), "{}", h.name);
            assert_eq!(q.backoff_cap_exp, h.os.backoff_cap_exp(), "{}", h.name);
        }
        assert_eq!(host("void").unwrap().os.quirks().dupthresh, 2);
        assert_eq!(host("att").unwrap().os.quirks().dupthresh, 2);
        assert_eq!(host("manic").unwrap().os.quirks().backoff_cap_exp, 5);
        assert_eq!(host("babel").unwrap().os.quirks(), Quirks::default());
        assert_eq!(host("pif").unwrap().os.quirks(), Quirks::default());
    }

    #[test]
    fn senders_of_table_ii_exist() {
        for s in ["manic", "void", "babel", "pif", "att"] {
            assert!(host(s).is_some(), "Table II sender {s} missing");
        }
    }

    #[test]
    fn labels_are_nonempty() {
        for h in HOSTS {
            assert!(!h.os.label().is_empty());
        }
    }
}
